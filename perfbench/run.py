#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload kernels|service_mix \\
        --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (Release, the repository's src/ libraries
plus the harness) under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs the harness, and passes its output through: the
last line of standard output is the JSON result. Build logs go to standard
error. Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["kernels", "service_mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 1

    work = os.path.join(build, "work")
    command = [
        os.path.join(build, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", os.path.join(here, "expected.txt"),
        "--work-dir", work,
    ]
    if args.trace:
        command += ["--trace-out",
                    os.path.join(build, "traces", f"{args.workload}-{args.seed}.json")]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.returncode != 0:
        print(f"perfbench: harness exited with {result.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
