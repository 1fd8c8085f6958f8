#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

Run from the repository root:

    python3 servebench/run.py --workload decode_resident --seed 1 --seconds 10 --trace 0

The first run configures and builds servebench and the library it links into
.bench_build/servebench-build (CMake, Release); later runs rebuild only what
changed. Build output goes to stderr. The benchmark's own output goes to
stdout; its last line is the JSON result. The exit code is the benchmark's,
or 1 when the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def source_id(root):
    """The git commit when there is one, else a hash of the source tree."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "servebench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "servebench", "-j",
                    str(os.cpu_count() or 1)], check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print("servebench: no src/ beside servebench/; run it from a repository checkout",
              file=sys.stderr)
        return 1
    out_dir = os.path.join(root, ".bench_build", "servebench")
    build_dir = os.path.join(root, ".bench_build", "servebench-build")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"servebench: build failed: {e}", file=sys.stderr)
        return 1

    sys.stdout.flush()
    cmd = [os.path.join(build_dir, "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir,
           "--source-id", source_id(root)]
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"servebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
