#!/usr/bin/env python3
"""Build and run the javelin same-host benchmark.

    python3 perfbench/run.py --workload <mutator|gc_bound|embedded_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the javelin libraries from the
checkout's src/ and the perfbench program (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build)/perfbench, then runs it.
Build output goes to stderr; the last stdout line is the JSON result.
Result files, spans and spooled traces go to .bench_build/perfbench-out.
The exit code is non-zero when the build fails or a check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["mutator", "gc_bound", "embedded_sweep"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = build_root / "perfbench"
    configure = ["cmake", "-S", str(HERE), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (build / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(os.cpu_count() or 1, 4))
    for step in (configure, ["cmake", "--build", str(build), "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1

    command = [str(build / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", args.trace,
               "--out", str(build_root / "perfbench-out")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
