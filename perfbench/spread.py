"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload jump-engine --runs 10 --seconds 30

Runs ``run.py`` once per seed (``--first-seed``, +1, ...), one run at a
time, and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the relative spread
``(Q3 - Q1) / median``, plus the share of failed operations and whether
every run checked correct.  The benchmark's bounds are set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown}", flush=True)

    summary = {
        "workload": args.workload,
        "runs": len(results),
        "seconds": args.seconds,
        "all_correct": all(r["correct"] for r in results),
        "failed_shares": sorted({r["failed"] / r["attempted"] for r in results}),
        "metrics": {},
    }
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        summary["metrics"][name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median,
        }
        print(f"{name:>12}: median {median:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
              f"spread {(q3 - q1) / median:.4f}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
