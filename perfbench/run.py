#!/usr/bin/env python3
"""Builds the SEAFL benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload paper_emnist --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --host-reference

The binary (perfbench/src) is compiled with CMake into .bench_build/perfbench
under the checkout root, against the repository's own libraries. Build output
goes to stderr; the binary's result JSON is the last line of stdout. The exit
code is non-zero when the build fails, the sources are missing, or a check
fails.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_emnist", "population_1m", "server_ingest")
RUN_TIMEOUT_S = 170


def build(root: Path, build_dir: Path) -> Path:
    source = root / "perfbench"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(source), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="feed every correctness check a corrupted "
                             "output and require it to fail")
    parser.add_argument("--host-reference", action="store_true",
                        help="print this host's stream-copy bandwidth")
    args = parser.parse_args()
    if not (args.selftest or args.host_reference) and args.workload is None:
        parser.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    try:
        exe = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    scratch = root / ".bench_build" / "scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    if args.selftest or args.host_reference:
        cmd = [str(exe), "--selftest" if args.selftest else "--host-reference"]
    else:
        cmd = [str(exe), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--scratch", str(scratch)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
