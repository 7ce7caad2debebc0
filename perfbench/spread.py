#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py [--workloads W,W] [--seeds 1-10]
                                [--seconds S]

For every workload it runs `perfbench/run.py` once per seed and prints, per
end-to-end metric, the median of the per-run values and the distance between their
first and third quartiles as a share of that median (Python's
statistics.quantiles with n=4). A run that fails its checks is reported and
makes the script exit nonzero.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for w in args.workloads.split(","):
        values = {}
        for s in args.seeds:
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", w, "--seed", str(s), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if run.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{w} seed {s}: FAILED (exit {run.returncode})")
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({len(args.seeds)} seeds, {args.seconds} s each)")
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            note = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:28s} median {med:.6g}  iqr/median {spread:.4f}"
                  f"{note}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
