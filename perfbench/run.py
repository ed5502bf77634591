#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simtsr libraries with the repository's own CMake project, then
the benchmark (perfbench/CMakeLists.txt) against them, both under
.bench_build/ at the root of the checkout, and runs one workload:
table2-sim, kernelgen-compile or serve-zipf. The last line of standard
output is the benchmark's JSON result. A traced run (--trace 1) also
writes its spans to .bench_build/traces/WORKLOAD.json (Chrome trace
events; open in Perfetto).

Exits non-zero without printing a result when the build fails, and with
the benchmark's exit code otherwise (1 when an output was wrong).
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("table2-sim", "kernelgen-compile", "serve-zipf")
# The repository's targets the benchmark links; their dependencies are
# every other simtsr library.
LIB_TARGETS = ("simtsr_serve", "simtsr_fuzz")
RUN_TIMEOUT_S = 170


def run_step(cmd):
    """Runs one build command; on failure shows its output and exits."""
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:])
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(3)


def build():
    repo, bench = BUILD / "repo", BUILD / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (repo / "CMakeCache.txt").exists():
        run_step(["cmake", "-S", str(ROOT), "-B", str(repo)])
    run_step(["cmake", "--build", str(repo), "-j", jobs, "--target",
              *LIB_TARGETS])
    # Configured every run: the library list is globbed at configure time.
    run_step(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bench),
              "-DSIMTSR_BUILD_DIR=" + str(repo)])
    run_step(["cmake", "--build", str(bench), "-j", jobs])
    return bench / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help="corrupt one reference value (tests the oracle)")
    args = parser.parse_args()

    binary = build()
    scratch = BUILD / "run" / ("%s-%d" % (args.workload, os.getpid()))
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           args.trace, "--scratch", str(scratch.relative_to(ROOT))]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(traces / (args.workload + ".json"))]
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        code = 4
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
