#!/usr/bin/env python3
"""Build and run the whole-stack benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cpu --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds
the repository's libraries plus the perfbench program into the build
directory ($CARGO_TARGET_DIR, default .bench_build); later calls only
re-check the build. Build output goes to stderr, so the program's last
stdout line stays the result JSON. Checkpoints and span files land under
<build>/run, never in tracked files.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cpu", "hls", "grade", "durable")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources next to perfbench/; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    try:
        exe = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    out_dir = os.path.join(build_dir, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--corpus", os.path.join(root, "tests", "corpus"),
           "--out", out_dir]
    return subprocess.run(cmd, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
