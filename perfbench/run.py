#!/usr/bin/env python3
"""Benchmark entry point: builds the driver, runs one workload, prints the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
driver and the repository's libraries (Release) under
.bench_build/perfbench-<key>/, where <key> names this checkout's path; later
runs reuse that build. The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}. The lines before it stamp
the run context (sources, build, host, load) and the failures by cause.
Exits non-zero, without a result line, when the library sources are not
next to this directory or the build fails; exits non-zero with a one-line
reason on stderr when an output check fails.
"""
import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sinr-campaign-4096", "sinr-watchdog-4096", "fabric-1024")
BUILD_JOBS = "3"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def work_root():
    """This checkout's directory under the build root (CARGO_TARGET_DIR, else
    .bench_build). It is keyed on the checkout's path, so checkouts that
    share a build root never build or run each other's sources."""
    base = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    key = hashlib.sha256(ROOT.encode()).hexdigest()[:12]
    return os.path.join(base, "perfbench-" + key)


def build_driver():
    """Configures (once) and builds the Release driver; returns its path."""
    build_dir = os.path.join(work_root(), "release")
    os.makedirs(build_dir, exist_ok=True)
    driver = os.path.join(build_dir, "perfbench_driver")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"] + generator)
        steps.append(["cmake", "--build", build_dir, "-j", BUILD_JOBS])
        for cmd in steps:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))
    if not os.path.exists(driver):
        fail("build produced no driver at " + driver)
    return driver


def git_stamp():
    """(sha, dirty) of the checkout, or (None, None) outside a git tree."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def source_digest():
    """SHA-256 over the library and benchmark sources (names and bytes)."""
    h = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--driver-arg", action="append", default=[],
                        help="extra driver flag (self-test hooks)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at %s (expected src/CMakeLists.txt next to %s/)"
             % (ROOT, os.path.basename(HERE)), code=2)
    if shutil.which("cmake") is None:
        fail("cmake not found", code=2)
    load_start = os.getloadavg()
    driver = build_driver()

    workdir = os.path.join(work_root(), "run", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    spans = os.path.join(work_root(), "traces", args.workload + ".tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    # Relative to the repository root (the driver's cwd): keeps the fabric's
    # UNIX socket path short.
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.relpath(workdir, ROOT),
           "--spans", os.path.relpath(spans, ROOT)] + args.driver_arg
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = None
    for line in lines[:-1]:
        print(line)
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            print(lines[-1])

    sha, dirty = git_stamp()
    context = {
        "git_sha": sha,
        "git_dirty": dirty,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "driver_exit": proc.returncode,
    }
    if args.trace:
        context["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps({"run_context": context}))
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed no result (exit %d)" % proc.returncode)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
