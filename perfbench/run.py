#!/usr/bin/env python3
"""Build and run the repository benchmark (see BENCHMARK.json).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig4-live --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 1 --trace 1 --smoke
    python3 perfbench/run.py --make-reference

The first call configures and builds the simulator, the rsep_serve daemon,
the bench_fig4_speedup client and the perfbench program into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild only what changed. Build output goes to stderr. The last line of
stdout is the result: one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero, without a result, when the build or
the run fails.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig4-live", "replay-sweep", "serve-mixed")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 165
BUILD_TIMEOUT_S = 900


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build; returns the binary directory."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log("no simulator sources next to perfbench/; "
            "run from a full checkout")
        return None
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target",
                  "perfbench"])
    start = time.monotonic()
    for cmd in steps:
        left = BUILD_TIMEOUT_S - (time.monotonic() - start)
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            log("build timed out")
            return None
        if done.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    return out


def fingerprint(binary_dir):
    """One line naming the host and build the figures come from."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(binary_dir, "CMakeCache.txt")) as f:
            for line in f:
                key, sep, value = line.rstrip("\n").partition("=")
                if sep:
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    flags = " ".join(cache.get(k, "") for k in (
        "CMAKE_CXX_FLAGS", "CMAKE_CXX_FLAGS_RELEASE")).strip()
    # Stop at the checkout root, so an enclosing repository is not read.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    try:
        compiler = subprocess.run(
            [cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"],
            capture_output=True, text=True,
            timeout=10).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        compiler = "unknown"
    return "host: nproc=%d cpu=%r compiler=%r flags=%r rev=%s" % (
        len(os.sched_getaffinity(0)), cpu, compiler, flags,
        rev or "none (not a git checkout)")


def run(binary_dir, args, timeout=RUN_TIMEOUT_S):
    """Run perfbench in its own process group; returns (code, stdout)."""
    work = os.path.join(os.path.dirname(binary_dir), "perfbench-work")
    cmd = [os.path.join(binary_dir, "perfbench"),
           "--bin-dir", os.path.join(binary_dir, "rsep"),
           "--work-dir", os.path.relpath(work, ROOT),
           "--reference", os.path.join(HERE, "reference.txt")] + args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run timed out after %d s" % timeout)
        return 3, ""
    return proc.returncode, out


def check_result(line):
    """perfbench's result line must be a well-formed report."""
    rep = json.loads(line)
    if set(rep) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys %s" % sorted(rep))
    if not isinstance(rep["attempted"], int) or rep["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, m in rep["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError("metric %s is malformed" % name)
    return rep


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizing: checks the plumbing, not speed")
    ap.add_argument("--make-reference", action="store_true",
                    help="regenerate perfbench/reference.txt")
    a = ap.parse_args()
    if not a.make_reference and None in (a.workload, a.seed, a.seconds,
                                         a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    binary_dir = build()
    if binary_dir is None:
        return 2
    if a.make_reference:
        code, out = run(binary_dir, ["--make-reference"], timeout=3600)
        sys.stdout.write(out)
        return code

    log(fingerprint(binary_dir))
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.smoke:
        args.append("--smoke")
    code, out = run(binary_dir, args)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log("perfbench exited with code %d" % code)
        return code or 1
    try:
        check_result(lines[-1])
    except ValueError as e:
        log("malformed result line: %s" % e)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
