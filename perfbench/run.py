#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload serve-gemm --seed 1 --seconds 12 --trace 0

Run from the repository root.  Builds the benchmark with CMake (Release)
into $CARGO_TARGET_DIR or .bench_build, then runs one workload with the
tuning cache off and no PORTABENCH_* overrides.  The benchmark's last
line of output is one JSON object; the exit code is the benchmark's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            log("build step failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def pinned_environment():
    env = dict(os.environ)
    if "PORTABENCH_CHECK" in env:
        log("refusing to run under PORTABENCH_CHECK:",
            "the sanitized schedule is not what is measured")
        return None
    overrides = sorted(k for k in env
                       if k.startswith("PORTABENCH_") and k != "PORTABENCH_TUNE_DISABLE")
    if overrides:
        log("unset", ", ".join(overrides), "- overrides change what is measured")
        return None
    env["PORTABENCH_TUNE_DISABLE"] = "1"
    return env


def main():
    env = pinned_environment()
    if env is None:
        return 2
    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if binary is None:
        return 1
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
