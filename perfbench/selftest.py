#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run from the repository root (builds the driver like run.py does). Each case
runs the benchmark briefly and asserts how it ends:

  * a corrupted outcome digest fails the run with a one-line reason;
  * a forced fabric local fallback fails the run with a one-line reason;
  * wrapping the channel adapter for tracing leaves every trial's outcome
    and round loop unchanged (driver --selftest-wrapper);
  * the metrics printed with --trace 0 and --trace 1 are exactly the
    end-to-end and per-layer metrics BENCHMARK.json declares, with units;
  * without the library sources next to it the benchmark exits non-zero
    and prints no result.

Exits 0 when every case passes.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]


def run(args, cwd=ROOT):
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def fail_lines(proc):
    return [l for l in proc.stderr.splitlines() if l.startswith("perfbench: FAIL")]


def expect_failure(name, args, needle):
    proc = run(args)
    reasons = fail_lines(proc)
    ok = proc.returncode != 0 and len(reasons) == 1 and needle in reasons[0]
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name,
                         reasons[0] if reasons else "exit %d, no reason" % proc.returncode))
    return ok


def expect_metrics(name, trace, declared):
    proc = run(["--workload", "sinr-campaign-4096", "--seed", "3",
                "--seconds", "1", "--trace", str(trace)])
    result = result_of(proc)
    got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
    want = {m["name"]: m["unit"] for m in declared}
    ok = proc.returncode == 0 and result["correct"] and got == want
    detail = "%d metrics" % len(got)
    if got != want:
        detail = "missing %s, undeclared %s, unit differs %s" % (
            sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(k for k in set(got) & set(want) if got[k] != want[k]))
    print("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    return ok


def expect_no_sources():
    bare = os.path.join(ROOT, ".bench_build", "perfbench-selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)))
    proc = subprocess.run([sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
                           "--workload", "fabric-1024", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and result_of(proc) is None
    print("%s without sources: exit %d, %s" % ("PASS" if ok else "FAIL", proc.returncode,
                                             proc.stderr.strip().splitlines()[-1:]))
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    brief = ["--seed", "1", "--seconds", "1", "--trace", "0"]
    results = [
        expect_failure("corrupted digest",
                       ["--workload", "sinr-campaign-4096"] + brief +
                       ["--driver-arg=--corrupt-digest"], "digest mismatch"),
        expect_failure("forced fabric local fallback",
                       ["--workload", "fabric-1024"] + brief +
                       ["--driver-arg=--force-local-fallback"], "fabric local fallback"),
    ]
    sys.path.insert(0, HERE)
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout
    import run as bench_run  # pylint: disable=import-outside-toplevel
    wrapper = subprocess.run([bench_run.build_driver(), "--selftest-wrapper", "--seed", "1"],
                             cwd=ROOT, capture_output=True, text=True, timeout=600)
    ok = wrapper.returncode == 0 and "wrapper self-test: PASS" in wrapper.stdout
    print("%s channel wrapper keeps outcome and round loop" % ("PASS" if ok else "FAIL"))
    if not ok:
        print(wrapper.stdout + wrapper.stderr)
    results.append(ok)
    results.append(expect_metrics("end-to-end metrics match BENCHMARK.json", 0,
                                  bench["end_to_end"]))
    results.append(expect_metrics("per-layer metrics match BENCHMARK.json", 1,
                                  bench["per_layer"]))
    results.append(expect_no_sources())
    print("selftest: %d/%d passed" % (sum(results), len(results)))
    sys.exit(0 if all(results) else 1)


if __name__ == "__main__":
    main()
