#!/usr/bin/env python3
"""Build and run the end-to-end benchmark program.

    python3 perfbench/run.py --workload always-on --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the library from src/ plus the benchmark program)
with CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; later runs only re-check the build. Build
output goes to stderr, so the benchmark's JSON result stays the last
line of stdout. The benchmark program runs with every DELOREAN_*
environment knob removed, so thread widths and scales come from the
benchmark alone. Exit status is that of the benchmark program; a failed
build exits 2 without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target):
    """Configure (once) and build @target; False on any failure."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(out), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return False
        if res.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def source_id():
    """Git commit when available, plus a digest of the built sources."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    sha = "none"
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=False)
            if res.returncode == 0:
                sha = res.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"git:{sha} src:{digest.hexdigest()[:16]}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=0,
                    help="nominal run length; the work per run is fixed")
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the helper unit tests")
    args = ap.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 2
        return subprocess.run([str(build_dir() / "perfbench_selftest")],
                              check=False).returncode
    if args.workload is None or args.seed is None:
        ap.error("--workload and --seed are required")
    if not build("perfbench"):
        return 2

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DELOREAN_")}
    cmd = [str(build_dir() / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(ROOT / ".bench_work"),
           "--outdir", str(ROOT / ".bench_out"),
           "--source-id", source_id()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark program timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
