"""Run-to-run spread of the benchmark across seeds.

    python3 perfbench/spread.py --workloads avoid-deep track-cluster --seeds 10 --seconds 28
    python3 perfbench/spread.py --seeds 3 --trace 1 --out results.json

Runs run.py once per (seed, workload), one process at a time, workloads
interleaved within each seed.  For every metric it prints the median over
the runs and the spread, (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`.  Count metrics must repeat exactly
across seeds; the last column says whether they do.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=list(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write every run's result as JSON")
    args = parser.parse_args()

    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for name in args.workloads:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), None)
            runs[name].append({"seed": seed, "returncode": done.returncode, "host": host, **result})
            print(f"seed {seed} {name}: exit {done.returncode}, correct {result['correct']}, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    ok = True
    print(f"\n{'workload':<16} {'metric':<26} {'median':>12} {'spread':>8}  repeats")
    for name, results in runs.items():
        ok = ok and all(r["correct"] and r["returncode"] == 0 for r in results)
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / median if median else 0.0
            repeats = ("yes" if len(set(values)) == 1 else "NO") \
                if results[0]["metrics"][metric]["unit"] in ("count", "bits") else ""
            print(f"{name:<16} {metric:<26} {median:>12.6g} {spread:>8.3f}  {repeats}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
