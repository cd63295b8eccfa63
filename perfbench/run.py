#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload mlp_net --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to perfbench/ under
$CARGO_TARGET_DIR (default .bench_build); containers and span files go to
its work/ directory. Every run pins the environment below, so two sets of runs are
comparable; compare.py refuses runs whose SIMD level or thread cap differ.
The last line of standard output is the run's result object.
"""
import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

PINNED_ENV = {
    "BBS_THREADS": "4",
    "BBS_SIMD": "avx512",
    "BBS_TUNE_CACHE": "none",  # the selection heuristic, no tuned plans
    "BBS_TRACE_SAMPLE": "1",
    "BBS_STORE_BUDGET": "1G",
}
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not d.is_absolute():
        d = ROOT / d
    return d


def build(out: pathlib.Path) -> pathlib.Path:
    """Configure once, then build incrementally. Build output goes to
    stderr so the result line stays the last line of stdout."""
    out.mkdir(parents=True, exist_ok=True)
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"], check=True,
                   stdout=sys.stderr)
    return out / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")

    out = build_dir()
    try:
        binary = build(out / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    work = out / "work"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **PINNED_ENV)

    if args.self_test:
        rc = subprocess.run([str(binary), "--self-test", "--work-dir",
                             str(work)], env=env).returncode
        py = subprocess.run([sys.executable, "-m", "unittest", "-q",
                             "test_compare"], cwd=HERE).returncode
        return 0 if rc == 0 and py == 0 else 1

    print("workload: {} seed: {} seconds: {} trace: {}".format(
        args.workload, args.seed, args.seconds, args.trace), flush=True)
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--work-dir", str(work)]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
