#!/usr/bin/env python3
"""Build and run the SPL end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload plan|execute|spld --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/CMakeLists.txt (the library
sources under src/ plus the benchmark driver) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only check the build is up to
date. Each run gets a private scratch directory (wisdom files, kernel
caches, the spld socket, compiler temporaries) that is removed afterwards,
and an environment with every SPL_* variable removed. The last line of
standard output is the result JSON; build output goes to standard error.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    cmake_dir = out_dir / "cmake"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (cmake_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", str(cmake_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return cmake_dir / "perfbench"


def scrubbed_env(scratch):
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPL_")}
    for name in ("tmp", "home"):
        (scratch / name).mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(scratch / "tmp")
    env["HOME"] = str(scratch / "home")
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["plan", "execute", "spld"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None or not binary.exists():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    scratch = out_dir / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    work = scratch / "work"
    work.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work)]
    try:
        proc = subprocess.run(cmd, env=scrubbed_env(scratch),
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        shutil.rmtree(scratch, ignore_errors=True)
        return 4
    trace = work / "trace.json"
    if trace.exists():
        traces = out_dir / "traces"
        traces.mkdir(exist_ok=True)
        shutil.copy(trace, traces / f"{args.workload}-seed{args.seed}.json")
    shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
