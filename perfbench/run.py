"""Benchmark of the qfpt engines: jump, diffusion and Monte Carlo paths.

    python3 perfbench/run.py --workload jump-engine --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics, or with ``--trace 1`` the per-layer metrics of one traced round).
The line before it records the machine, the versions and the seconds of
every operation in every round.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy loads here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3


def import_package():
    """Import qfpt from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "qfpt" / "__init__.py").is_file():
        sys.exit(f"error: no qfpt sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import qfpt
    import qfpt.cli  # noqa: F401  (the command-line layer the engine workloads drive)

    if Path(qfpt.__file__).resolve().parent != (SRC / "qfpt").resolve():
        sys.exit(f"error: imported qfpt from {qfpt.__file__}, not from {SRC}")
    return qfpt


def probe(workload: str) -> None:
    """A fresh process's set-up: imports, the workload's models and their
    steady states."""
    qfpt = import_package()
    import workloads

    workloads.setup_models(qfpt, workload)


def setup_seconds(workload: str) -> float:
    """Median wall time of fresh interpreters running ``probe``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", workload],
            check=True, cwd=ROOT, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_round(bench) -> tuple[dict[str, float], int]:
    """One pass over the workload's operations: (seconds per operation,
    failed count)."""
    failed = 0
    seconds = {}
    for op in bench.ops:
        t0 = time.perf_counter()
        try:
            ok = op[1]()
        except Exception as exc:  # an operation's failure is counted, not fatal
            print(f"operation {op[0]} failed: {exc!r}", file=sys.stderr)
            ok = False
        seconds[op[0]] = time.perf_counter() - t0
        if not ok:
            failed += op[2]
    bench.after_round()
    return seconds, failed


def best_round_seconds(rounds: list[dict[str, float]]) -> float:
    """Sum over operations of each one's fastest pass."""
    return sum(min(r[label] for r in rounds) for label in rounds[0])


def timed_rounds(bench, seconds: float) -> tuple[list[dict[str, float]], int, float]:
    """Whole rounds until the time they took is as close to ``seconds`` as
    whole rounds of the mean length so far allow; always at least one.
    Returns the rounds, the failed count and the peak RSS in MB after the
    first round."""
    rounds, failed, peak_rss_mb = [], 0, None
    while True:
        seconds_by_op, fails = run_round(bench)
        if peak_rss_mb is None:
            # high-water mark of one pass, as a single command sees it;
            # later passes add fragmentation that depends on the count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(seconds_by_op)
        failed += fails
        spent = sum(sum(r.values()) for r in rounds)
        if spent + 0.5 * spent / len(rounds) > seconds:
            return rounds, failed, peak_rss_mb


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args.probe)
        return 0

    qfpt = import_package()
    import workloads
    import tracing

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    setup_s = None if args.trace else setup_seconds(args.workload)

    outdir = OUT / args.workload
    bench = workloads.WORKLOADS[args.workload](qfpt, outdir, args.seed)
    per_round = sum(op[2] for op in bench.ops)

    rounds, failed = [], 0
    if args.trace:
        # untraced and traced rounds alternate twice; the per-layer metrics
        # come from the first traced round, the overhead from the fastest
        # passes of each kind
        traced_rounds, tracers = [], []
        for _ in range(2):
            seconds, fails = run_round(bench)
            rounds.append(seconds)
            failed += fails
            tracer = tracing.Tracer()
            tracer.install(qfpt)
            try:
                seconds, fails = run_round(bench)
            finally:
                tracer.uninstall()
            traced_rounds.append(seconds)
            tracers.append(tracer)
            failed += fails
        attempted = 4 * per_round
    else:
        rounds, failed, peak_rss_mb = timed_rounds(bench, args.seconds)
        attempted = len(rounds) * per_round

    problems = bench.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops_per_round": per_round,
        "op_seconds": rounds,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "qfpt": qfpt.cli.PACKAGE_VERSION,
        },
    }
    if args.trace:
        layer = tracing.layer_metrics(tracers[0].spans)
        untraced_s, traced_s = best_round_seconds(rounds), best_round_seconds(traced_rounds)
        layer["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
        info["traced_op_seconds"] = traced_rounds
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracers[0].write(trace_path, info)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            # every operation of every round over all the time they took: the
            # throughput a user running these commands back to back sees
            "ops_per_s": {"value": attempted / sum(sum(r.values()) for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
