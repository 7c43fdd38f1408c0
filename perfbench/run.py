#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds
perfbench/ (which builds ../src) under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls rebuild only what changed.  Build output
goes to stderr.  The benchmark's result is the last line of stdout.
"""
import fcntl
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One run must end within this many seconds of measuring time.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(target: str) -> Path:
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        if not (out / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd, "configure")
        step(["cmake", "--build", str(out), "--target", target, "-j", str(jobs())], "build")
    return out / target


def jobs() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def step(cmd, what):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.stderr.write(f"perfbench: {what} failed ({' '.join(cmd)})\n")
        if what == "configure":
            (build_dir() / "CMakeCache.txt").unlink(missing_ok=True)
        sys.exit(2)


def clean_env():
    """The runtime's own observability (ST_TRACE, ST_METRICS, ST_STATS,
    ST_SCHED_*, ...) and tuning knobs stay off in every benchmark run."""
    return {k: v for k, v in os.environ.items() if not k.startswith(("ST_", "STMP_"))}


def main(argv):
    if argv == ["--self-test"]:
        test = build("perfbench_checks_test")
        return subprocess.run([str(test)], env=clean_env()).returncode
    exe = build("perfbench")
    t0 = time.monotonic_ns()
    proc = subprocess.Popen([str(exe), *argv, "--t0-ns", str(t0)], cwd=ROOT, env=clean_env())
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s, killed\n")
        return 3
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        raise


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
