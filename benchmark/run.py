#!/usr/bin/env python3
"""Builds and runs the DualSim end-to-end benchmark (see NOTES.md).

Run from the repository root:

  python3 benchmark/run.py --workload scan_cold --seed 1 --seconds 30 --trace 0
  python3 benchmark/run.py --selftest

The benchmark is its own CMake project (benchmark/CMakeLists.txt) that
compiles the repository's src/ libraries. It is configured and built into
$CARGO_TARGET_DIR (default .bench_build) under the current directory;
run outputs (Chrome traces, scratch databases) go to <build dir>/out.
The last line of stdout is the result JSON of dualsim_e2e, checked
here against the metric lists in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    """Configures (once) and builds `targets`; build logs go to stderr."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("benchmark: the repository's src/ is missing; nothing to build")
    cmake_dir = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr)
    return cmake_dir


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in wanted):
        sys.exit("benchmark: metrics %s do not match BENCHMARK.json %s"
                 % (sorted(got), sorted(m["name"] for m in wanted)))
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            sys.exit("benchmark: unit of %s is %s, BENCHMARK.json says %s"
                     % (m["name"], got[m["name"]]["unit"], m["unit"]))


def selftest():
    """The benchmark's own tests, then a run with a wrong expected count,
    which must fail."""
    cmake_dir = build(["e2e_selftest", "dualsim_e2e"])
    subprocess.run([os.path.join(cmake_dir, "e2e_selftest")], check=True)
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    for workload in ("scan_cold", "serve_update"):
        proc = subprocess.run(
            [os.path.join(cmake_dir, "dualsim_e2e"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0",
             "--out-dir", out_dir, "--expect-offset", "1"],
            stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1]
        if proc.returncode == 0 or json.loads(last)["correct"]:
            sys.exit("selftest: a wrong expected count on %s did not fail "
                     "the run" % workload)
        print("selftest: wrong expected count on %s fails the run (exit %d)"
              % (workload, proc.returncode))
    print("selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-offset", type=int, default=0,
                        help="add to every oracle count (checks the check)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        selftest()
        return 0
    if not args.workload:
        parser.error("--workload is required")

    cmake_dir = build(["dualsim_e2e"])
    out_dir = os.path.join(build_dir(), "out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        # Set-up, oracle and teardown take a few seconds; a run still going
        # long after its measuring window is hung and is killed.
        proc = subprocess.run(
            [os.path.join(cmake_dir, "dualsim_e2e"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace), "--out-dir",
             out_dir, "--expect-offset", str(args.expect_offset)],
            stdout=subprocess.PIPE, text=True, timeout=args.seconds + 90)
    except subprocess.TimeoutExpired:
        sys.exit("benchmark: dualsim_e2e did not finish; killed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2
    print("\n".join(lines[:-1]))
    check_result(lines[-1], args.trace == 1)
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
