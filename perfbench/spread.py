"""Run-to-run spread of the benchmark, run from the root of a checkout:

    python3 perfbench/spread.py --workloads tensor_field,pair_geometry --seeds 1-10

Runs perfbench/run.py once per workload and seed, one run at a time, and
prints for every metric its median over the runs and its quartile spread
(Q3 - Q1, from statistics.quantiles(n=4)) as a share of the median. Each
result line is also kept in .perfbench-results/<workload>-<seed>-<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="tensor_field,geodesic_csv,pair_geometry,cli_reports")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    out_dir = ROOT / ".perfbench-results"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", args.seconds, "--trace", args.trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            line = proc.stdout.strip().splitlines()[-1]
            (out_dir / f"{workload}-{seed}-{args.trace}.json").write_text(line + "\n")
            runs.append(json.loads(line))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, all correct: {all(r['correct'] for r in runs)}, "
              f"failed shares: {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:44s} median {med:14.6g}  spread {spread:7.2%}  "
                  f"min {min(values):.6g}  max {max(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
