"""One round of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload W --seed N [--trace] [--spans PATH]
    python3 perfbench/worker.py --setup-only

Started by `run.py` with `src` on PYTHONPATH.  The set-up is timed first,
before this script imports anything else, so that the standard modules the
CLI needs are loaded inside the timed region as in a user's command; the
round itself is `client.main`.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup():
    """Import the CLI and load the validated config, as a user's command does."""
    started = time.perf_counter()
    import etasphere.cli as cli

    cli.load_config()
    setup_s = time.perf_counter() - started
    source = os.path.realpath(cli.__file__)
    if not source.startswith(os.path.join(os.path.realpath(ROOT), "src") + os.sep):
        raise SystemExit(f"etasphere imported from {source}, not from this checkout")
    return cli, setup_s


if __name__ == "__main__":
    cli, setup_s = setup()
    import client

    sys.exit(client.main(cli, setup_s, sys.argv[1:]))
