#!/usr/bin/env python3
"""Builds and runs the end-to-end freshness benchmark for one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload alg1-tree --seed 1 --seconds 15 --trace 0

The first call configures and compiles perfbench/ (the gsv library from
src/ plus the pipeline program) into .bench_build/; later calls only relink
what changed. Scratch state of a run (durability homes, the span trace)
lives in .bench_out/. The last line of stdout is the result object
{correct, attempted, failed, metrics}; the line before it stamps the host
and configuration. Any build failure, failed correctness gate or malformed
result exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("alg1-tree", "gdn-dag", "sharded-read")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def tool_env():
    # Keep compiler and program temporaries inside the checkout.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def run_child(argv, timeout, stdout):
    """Runs argv in its own process group and waits for it; on timeout the
    whole group (make, compilers, ...) is killed and reaped. Returns
    (returncode, captured stdout or None)."""
    try:
        child = subprocess.Popen(argv, cwd=ROOT, env=tool_env(),
                                 stdout=stdout, stderr=sys.stderr, text=True,
                                 start_new_session=True)
    except OSError as error:
        fail("cannot run %s: %s" % (argv[0], error))
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        fail("timed out after %d s: %s" % (timeout, " ".join(argv)))
    return child.returncode, out


def run_tool(argv, timeout):
    code, _ = run_child(argv, timeout, sys.stderr)
    if code != 0:
        fail("failed (%d): %s" % (code, " ".join(argv)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from the root of a gsv "
             "source checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_tool(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_tool(["cmake", "--build", BUILD_DIR, "--target", "pipeline",
              "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "pipeline")


def source_digest():
    """SHA-256 over src/ and perfbench/ (the checkout need not be a git
    repository, so this identifies the code that was measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d" %
                       (args.workload, args.seed, args.trace))
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out]
    code, stdout = run_child(argv, RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        fail("pipeline exited %d" % code)

    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) < 2:
        fail("pipeline printed no result")
    try:
        stamp = json.loads(lines[-2])
        result = json.loads(lines[-1])
    except json.JSONDecodeError as error:
        fail("malformed pipeline output: %s" % error)
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        fail("pipeline result failed its checks: %s" % lines[-1])

    stamp["config"]["git_sha"] = git_sha()
    stamp["config"]["source_sha256"] = source_digest()
    for line in lines[:-2]:
        print(line)
    print(json.dumps(stamp))
    print(json.dumps(result))
    # Durability homes are scratch; the span trace stays for inspection.
    for name in os.listdir(out):
        path = os.path.join(out, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
