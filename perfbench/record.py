"""Record the expected outcome of every request the workloads can draw.

    PYTHONPATH=src python3 perfbench/record.py

Runs each request of every workload's parameter space once, in this
interpreter, and writes `perfbench/expected.json`: request key ->
"exit:raised:digest", where the digest covers the semantic part of the JSON
report (see `client.REPORT_KEYS`) or the return value of a call.  Refuses to
write if an oracle disagrees with an output.  Re-record only in a change that
is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import client  # noqa: E402
import oracles  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, parameter_space, request_key  # noqa: E402


def main() -> int:
    cli, _ = worker.setup()
    expected, bad = {}, []
    for workload in WORKLOADS:
        for req in parameter_space(workload):
            key = request_key(req)
            if key in expected:
                continue
            if req["kind"] == "cli":
                _, outcome, result = client.run_cli(cli, req)
                reason = oracles.check_cli(req["argv"], outcome["exit"], result)
            else:
                _, outcome, result = client.run_call(cli, req)
                reason = outcome["raised"] or oracles.check_call(req["fn"], req["args"], result)
            if reason:
                bad.append(f"{key}: {reason}")
            expected[key] = client.outcome_text(outcome)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(expected)} outcomes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
