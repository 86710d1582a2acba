"""The etasphere benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src`.  Load
model: a closed loop with one client.  Each round is a fresh interpreter
(`worker.py`) that sends the seeded request list one request after another,
so module caches start cold as in a user's CLI invocation.  Rounds run one
after another until `--seconds` is spent (at least MIN_ROUNDS); a few
set-up-only interpreters add samples to `setup_s`.  Every output is checked
against the outcome recorded from the commit that defined the benchmark,
the README exit-code contract and closed-form oracles.

`--trace 0` prints the end-to-end metrics (medians over rounds).
`--trace 1` runs one untraced round and at least two traced rounds, prints
the per-layer metrics of the traced rounds and the tracing overhead, and
checks that both traced rounds made identical work counts.  Span aggregates
per request are written to `.perfbench/spans/`.

Informational lines come first; the last line of standard output is the
JSON result.  Exits 1 without a result when the checkout cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 5
SETUP_ONLY_SAMPLES = 12
WORKER_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


class BenchError(RuntimeError):
    pass


def worker(*args, deadline):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies, per_round):
    """Latency at the highest listed percentile with >= 10 samples beyond it.

    The percentile is chosen for MIN_ROUNDS rounds, so that it does not
    change with the number of rounds a run happens to fit in.
    """
    n = MIN_ROUNDS * per_round
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
            cuts = statistics.quantiles(latencies, n=1000, method="inclusive")
            return p, n * (100.0 - p) / 100.0, cuts[round(p * 10) - 1]
    raise BenchError(f"{n} latencies are too few for a tail percentile")


def rounds(args, deadline, count_min, spans_dir=None):
    """Run rounds until `count_min` are done and the next would pass the budget.

    With `spans_dir` the rounds are traced and write their spans there.
    """
    out, durations = [], []
    stop = time.monotonic() + args.seconds
    while True:
        extra = []
        if spans_dir:
            spans = os.path.join(spans_dir, f"{args.workload}-{args.seed}-{len(out)}.json")
            extra = ["--trace", "--spans", spans]
        started = time.monotonic()
        out.append(worker("--workload", args.workload, "--seed", str(args.seed), *extra, deadline=deadline))
        durations.append(time.monotonic() - started)
        if len(out) >= count_min and time.monotonic() + statistics.median(durations) > stop:
            return out


def checks(results):
    attempted = sum(r["attempted"] for r in results)
    regressions = [x for r in results for x in r["regressions"]]
    defects = [x for r in results for x in r["defects"]]
    seen = set()
    for x in regressions:
        print(f"FAILED {x['request']}: {x['reason']}")
    for x in defects:
        if x["request"] not in seen:
            seen.add(x["request"])
            print(f"known defect (ROADMAP item 4) {x['request']}: {x['reason']}")
    print(f"failed_frac {len(regressions) + len(defects)}/{attempted} "
          f"= {(len(regressions) + len(defects)) / attempted:.6f} "
          f"({len(regressions)} regressions, {len(defects)} known defects)")
    return attempted, len(regressions), len(defects)


def end_to_end(args, deadline):
    setups = [worker("--setup-only", deadline=deadline)["setup_s"] for _ in range(SETUP_ONLY_SAMPLES)]
    results = rounds(args, deadline, MIN_ROUNDS)
    setups += [r["setup_s"] for r in results]
    latencies = [x for r in results for x in r["latencies"]]
    p, beyond, tail_s = tail(latencies, results[0]["attempted"])
    attempted, failed, defects = checks(results)
    print(f"{args.workload} seed {args.seed}: {len(results)} rounds, "
          f"{len(latencies)} requests, {len(setups)} set-ups; latency_tail_s is "
          f"p{p:g}, chosen to have {beyond:g} samples beyond it in {MIN_ROUNDS} rounds "
          f"({len(latencies) * (100 - p) / 100:g} in this run)")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in results), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in results), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MiB"),
        "ok_frac": ((attempted - failed - defects) / attempted, "frac"),
    }
    return attempted, failed, True, metrics


def exact_counts(result):
    counts = {k: v for k, v in result["layers"].items() if not k.endswith("self_s")}
    counts.update(result["coverage"])
    return counts


def per_layer(args, deadline):
    spans_dir = os.path.join(ROOT, ".perfbench", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    plain = worker("--workload", args.workload, "--seed", str(args.seed), deadline=deadline)
    traced = rounds(args, deadline, 2, spans_dir)
    attempted, failed, _ = checks([plain] + traced)
    first = exact_counts(traced[0])
    repeatable = all(exact_counts(r) == first for r in traced[1:])
    if not repeatable:
        diff = sorted(k for k in first if any(exact_counts(r).get(k) != first[k] for r in traced[1:]))
        print(f"FAILED work counts differ between traced rounds of one seed: {diff[:10]}")
    overhead = statistics.median(r["wall_s"] for r in traced) - plain["wall_s"]
    print(f"{args.workload} seed {args.seed}: {len(traced)} traced rounds, identical counts: "
          f"{repeatable}; tracing overhead {overhead:.3f} s on an untraced wall of {plain['wall_s']:.3f} s")
    metrics = {}
    for name, value in traced[0]["layers"].items():
        if name.endswith(".self_s"):
            metrics[name] = (statistics.median(r["layers"][name] for r in traced), "s")
        elif name.endswith(".repeat_frac"):
            metrics[name] = (value, "frac")
        else:
            metrics[name] = (value, "count")
    metrics["gf2.bits"] = (traced[0]["layers"]["gf2.bits"], "bits")
    for name, value in traced[0]["coverage"].items():
        metrics[f"cover.{name}"] = (value, "count")
    metrics["trace_overhead_s"] = (overhead, "s")
    return attempted, failed, repeatable, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in ("src/etasphere/cli.py", "perfbench/expected.json"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"cannot run the benchmark: {needed} is missing from {ROOT}", file=sys.stderr)
            return 1
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    try:
        attempted, failed, repeatable, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
