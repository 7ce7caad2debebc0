#!/usr/bin/env python3
"""Build and run the radiomc benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Configures perfbench/ with CMake into .bench_build/ (incremental after the
first run), builds radiomc_bench against ../src, and runs it with the same
arguments. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. With --trace 1 the spans of every traced repeat are
written to .bench_build/spans-<workload>-<seed>.jsonl.

The metric names the binary reports are checked against BENCHMARK.json; a
mismatch, a failed build or a failed run exits nonzero.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "radiomc_bench", "-j", "4"],
                   stdout=sys.stderr, check=True)


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    args = sys.argv[1:]
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: build failed: {e}", file=sys.stderr)
        return 1

    trace = flag(args, "--trace", "0") == "1"
    cmd = [str(BUILD / "radiomc_bench"), *args]
    if trace:
        spans = BUILD / "spans-{}-{}.jsonl".format(
            flag(args, "--workload", "none"), flag(args, "--seed", "1"))
        cmd += ["--spans-out", str(spans)]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    if run.returncode != 0:
        return run.returncode

    result = json.loads(run.stdout.strip().splitlines()[-1])
    want = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(want):
        print("error: reported metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ set(want))}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
