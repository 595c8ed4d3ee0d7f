#!/usr/bin/env python3
"""Build the perfbench driver from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload offload-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The driver is built with CMake into .bench_build/perfbench (configured once,
then rebuilt incrementally).  Build output goes to stderr; the driver's
standard output is passed through, and its last line is the JSON result.
"""
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SODEE source tree at {ROOT} (need CMakeLists.txt and src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    # Keep every build artifact inside the checkout.
    env["CCACHE_DISABLE"] = "1"
    env["CCACHE_DIR"] = str(BUILD / "ccache")
    env["TMPDIR"] = str(BUILD)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD), *gen,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench_driver",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
            if r.returncode != 0:
                fail(f"build step failed ({r.returncode}): {' '.join(cmd)}")
    if not DRIVER.is_file():
        fail(f"driver missing after build: {DRIVER}")


def main():
    build()
    sys.stdout.flush()
    os.chdir(ROOT)
    # The driver replaces this process: its exit code and output are ours.
    os.execv(str(DRIVER), [str(DRIVER), *sys.argv[1:]])


if __name__ == "__main__":
    main()
