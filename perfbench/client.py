"""One round of a workload, after `worker.setup()`; prints one JSON line.

Sends the seeded request list one request after another, checks each
outcome against the outcome recorded in `expected.json`, the README
contract and the closed-form oracles, and reports times, memory, failures
and work counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time

from etasphere import kwcalc, steenrod
from etasphere.graded import F2, RationalRing

import oracles
import tracer as tracing
from workloads import request_key, requests_for

HERE = os.path.dirname(os.path.abspath(__file__))

# semantic part of a JSON report: timings, the version and any keys a later
# report format adds next to them are not compared
REPORT_KEYS = ("command", "inputs", "results", "certificates", "all_passed")


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(cli, req):
    argv = req["argv"]
    out, err = io.StringIO(), io.StringIO()
    raised = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception as exc:  # an uncaught traceback exits 1 from the shell
        code, raised = 1, type(exc).__name__
    latency = time.perf_counter() - started
    text = out.getvalue()
    try:
        report = json.loads(text)
    except ValueError:
        report = None
    if isinstance(report, dict):
        body = digest({k: report.get(k) for k in REPORT_KEYS})
    else:
        report, body = None, digest(text)
    return latency, {"exit": code, "raised": raised, "digest": body}, report


# the public calculators a `call` request may name
CALLS = {
    "abstract_phi_report": lambda d, ring: kwcalc.abstract_phi_report(
        d, F2() if ring == "F2" else RationalRing()
    ),
    "conjugate_basis_triangularity": lambda base, max_weight: steenrod.conjugate_basis_triangularity(
        steenrod.SteenrodAlgebra(base, weight=16), max_weight, max_tau_power=2
    ),
    "check_antipode_axiom": lambda base, max_weight: steenrod.check_antipode_axiom(
        steenrod.SteenrodAlgebra(base, weight=16), max_weight
    ),
}


def run_call(cli, req):
    fn = CALLS[req["fn"]]
    raised = value = None
    started = time.perf_counter()
    try:
        value = fn(*req["args"])
    except Exception as exc:
        raised = type(exc).__name__
    latency = time.perf_counter() - started
    if raised:
        return latency, {"exit": 1, "raised": raised, "digest": digest("")}, None
    ok = value["surjective"] if isinstance(value, dict) else value > 0
    return latency, {"exit": 0 if ok else 1, "raised": None, "digest": digest(value)}, value


def outcome_text(outcome) -> str:
    return f"{outcome['exit']}:{outcome['raised'] or '-'}:{outcome['digest']}"


def meets_contract(contract, outcome, expected) -> bool:
    if outcome["exit"] != contract["exit"] or outcome["raised"]:
        return False
    same_as = contract.get("same_as")
    return same_as is None or outcome["digest"] == expected[same_as].split(":")[2]


def verdict(req, outcome, result, expected):
    """(regression, known defect): a one-line reason for each, or None."""
    if req["kind"] == "cli":
        reason = oracles.check_cli(req["argv"], outcome["exit"], result)
    else:
        reason = None if outcome["raised"] else oracles.check_call(req["fn"], req["args"], result)
    if reason:
        return reason, None
    want = expected.get(request_key(req))
    if want is None:
        return "no recorded outcome", None
    contract = req.get("contract")
    if contract and meets_contract(contract, outcome, expected):
        return None, None  # the documented outcome, whatever was recorded
    if outcome_text(outcome) != want:
        return f"outcome {outcome_text(outcome)} differs from recorded {want}", None
    if contract:
        got = f"exit {outcome['exit']}" + (f" ({outcome['raised']} raised)" if outcome["raised"] else "")
        return None, f"{got}; README contract: exit {contract['exit']}"
    return None, None


def cpu_seconds() -> float:
    """User + system time of this process and of its waited-for children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def main(cli, setup_s, argv) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write per-request span aggregates here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    requests = requests_for(args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    latencies, regressions, defects = [], [], []
    coverage = {"monomials_checked": 0, "e1_cells": 0, "e2_cells": 0}
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    for req in requests:
        if tracer:
            tracer.begin_request(req["id"])
            tracer.on = True
        run = run_cli if req["kind"] == "cli" else run_call
        latency, outcome, result = run(cli, req)
        if tracer:
            tracer.on = False
        latencies.append(latency)
        regression, defect = verdict(req, outcome, result, expected)
        if regression:
            regressions.append({"request": request_key(req), "reason": regression})
        if defect:
            defects.append({"request": request_key(req), "reason": defect})
        res = result.get("results") if isinstance(result, dict) and outcome["exit"] == 0 else None
        if isinstance(res, dict):
            coverage["monomials_checked"] += res.get("monomials_checked", 0)
            for page in ("e1_cells", "e2_cells"):
                coverage[page] += sum(len(v) for v in res.get(page, {}).values())
    wall_s = time.perf_counter() - started

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_seconds() - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies": latencies,
        "attempted": len(requests),
        "regressions": regressions,
        "defects": defects,
        "coverage": coverage,
    }
    if tracer:
        tracer.end_request()
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            spans = [{"id": r["id"], "request": request_key(r), "spans": tracer.requests[r["id"]]}
                     for r in requests]
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "requests": spans}, fh)
    print(json.dumps(out))
    return 0
