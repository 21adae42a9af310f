#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

Builds the benchmark driver from the checkout's sources, runs one workload
and forwards the driver's JSON result line as the last line of stdout:

    python3 perfbench/run.py --workload flow_blind --seed 1 --seconds 20 --trace 0

--trace 1 prints the per-layer metrics instead of the end-to-end ones and
writes the recorded spans as Chrome trace-event JSON under the build
directory.

Exit status: 0 when every output check passed, 1 when one failed (the
result line then says "correct": false), 2 when the driver could not be
built or run (no result line).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("flow_blind", "flow_aware", "fleet_mixed")
TARGET = "taf_perfbench"
# A run (after the first, which also compiles) must finish within 180 s.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    # Build outputs go to the checkout's shared build-output directory.
    return (ROOT / (os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench").resolve()


def build(bdir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", TARGET, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed ({' '.join(cmd)})")
    exe = bdir / TARGET
    if not exe.is_file():
        fail(f"{exe} was not built")
    return exe


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"driver exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"malformed result keys {sorted(result)}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1], flush=True)
    sys.exit(0 if result["correct"] and proc.returncode == 0 else 1)


if __name__ == "__main__":
    main()
