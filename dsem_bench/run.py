#!/usr/bin/env python3
"""Builds dsem_bench from this checkout's sources and runs one workload.

Run from the root of the repository:

    python3 dsem_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build), a Release
build with at most four compile jobs. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Any failure, the
build's included, exits non-zero without printing a result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run measures for --seconds and exits well within three minutes; the
# paper_fig13 traced run is the longest at about 45 s.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "dsem_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dsem_bench")


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(build_dir)
        run = subprocess.run(
            [binary, *sys.argv[1:], "--work-dir",
             os.path.join(build_dir, "run")],
            timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
