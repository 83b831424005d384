#!/usr/bin/env python3
"""Build and run the IPD pipeline benchmark.

Usage, from the repository root:

    python3 pipebench/run.py --workload collector_zipf --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds pipebench/ (the repository's src/
libraries plus ipd_pipebench, Release) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls only rebuild what changed.
Build output goes to stderr. The benchmark's stdout is passed through, so its
last line is the result object. Span files from --trace 1 runs land in
<build dir>/pipebench-out.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def build(build_dir: pathlib.Path) -> pathlib.Path:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "-j", jobs,
         "--target", "ipd_pipebench"],
        check=True, stdout=sys.stderr)
    return build_dir / "ipd_pipebench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"pipebench: no IPD sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    try:
        binary = build(target / "pipebench")
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"pipebench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(target / "pipebench-out")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("pipebench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
