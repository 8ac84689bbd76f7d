#!/usr/bin/env python3
"""Regression gate for the perf-smoke benchmarks.

Compares a freshly measured google-benchmark JSON against the committed
BENCH_resolve.json baseline. Absolute timings are machine-dependent (CI
runners differ run to run), so the gate works on machine-independent
RATIOS between benchmarks measured in the same process on the same
machine:

  batch ratio  = BM_BatchResolve/4096   / BM_SinrResolve/4096
                 (batched resolver vs the reference per-round scan)
  mask ratio   = BM_ResolveMask/4096    / BM_SinrResolve/4096
                 (the engine's bitmask resolve, near/far screen included,
                 vs the same reference scan)
  trial ratio  = BM_TrialWorkspace/256  / BM_FullExecution/256
                 (incrementally instrumented sweep vs the bare execution)
  fast ratio   = BM_FullExecutionRadio/1024 / BM_FullExecutionRadioVirtual/1024
                 (fast path vs the per-node virtual reference, Decay with
                 known N on the plain radio channel, so no resolver cost
                 moves it)
  decide ratio = BM_DecideKernelLanes/1024 / BM_DecideKernelGeneric/1024
                 (auto-dispatched decide kernel vs the generic target)
  closest pair = BM_MinPairwise/4096 / BM_MinPairwiseNearest/4096
                 (half-stencil sweep vs one nearest query per point)

Before gating it prints each file's provenance: git SHA, dirty flag,
source digest and host load, so two numbers from different trees or a
loaded host are told apart.

Each benchmark's time is the median of its repetition rows
(perf_smoke.sh runs 5). The script prints each gated benchmark's spread,
MAD / median, and refuses (exit 2) a baseline whose spread exceeds the
gate itself: a ratio measured that noisily cannot show a 25% regression.

A ratio growing by more than THRESHOLD (25%) over the baseline means the
optimised path got slower relative to its in-process reference — a real
regression, not runner noise. Baselines recorded before a benchmark
existed simply skip that check with a note, so adding benches never
breaks the gate retroactively.

Usage: scripts/perf_compare.py [--suite resolve|campaign] FRESH.json BASELINE.json
Exit codes: 0 ok, 1 regression, 2 usage/malformed input or a baseline
too noisy to gate against.
"""

import json
import sys

THRESHOLD = 1.25  # fail when fresh_ratio > baseline_ratio * THRESHOLD

RATIOS = [
    ("batch-resolve", "BM_BatchResolve/4096", "BM_SinrResolve/4096"),
    # The bitmask entry point the unobserved engine calls every round; at
    # n = 4096 its heavy rounds take the near/far tile screen. Growth past
    # the baseline means the screen or the sweep behind it regressed.
    ("mask-resolve", "BM_ResolveMask/4096", "BM_SinrResolve/4096"),
    ("instrumented-trial", "BM_TrialWorkspace/256", "BM_FullExecution/256"),
    # Fast path vs the per-node virtual reference at the headline size, on
    # the plain radio channel: its resolve is one flat pass, so the ratio
    # measures the round engine only (on SINR the reference's id-vector
    # resolves dominate it, and a resolver change would move the ratio).
    # Ratio < 1 means the fast path is faster; growth past the baseline
    # means it regressed relative to its in-process reference.
    ("columnar-execution", "BM_FullExecutionRadio/1024",
     "BM_FullExecutionRadioVirtual/1024"),
    # The fading decide kernel on the auto-dispatched target vs the same
    # kernel pinned to the generic plain-u64 target, on the same padded
    # columns. Ratio < 1 means the vector target is faster (about 1 on
    # hosts without AVX2); growth past the baseline means the dispatched
    # lane code regressed relative to the portable code measured in the
    # same process.
    ("decide-kernel", "BM_DecideKernelLanes/1024", "BM_DecideKernelGeneric/1024"),
    # Deployment set-up: grid build plus the certified half-stencil
    # closest-pair sweep vs the same grid build plus one nearest query per
    # point. Growth past the baseline means the sweep regressed relative
    # to the per-point loop it replaced (and falls back to).
    ("closest-pair", "BM_MinPairwise/4096", "BM_MinPairwiseNearest/4096"),
]

# Campaign fabric (BENCH_campaign.json, written by perf_smoke.sh): the same
# campaign sharded over a 3-worker fcrw fleet on a local unix socket vs the
# in-process LocalBackend. The ratio is the fabric's end-to-end overhead —
# socket framing, lease bookkeeping, result merging; growth past the
# baseline means the wire or scheduler path got more expensive relative to
# the computation it ships around.
CAMPAIGN_RATIOS = [
    ("campaign-fabric", "BM_CampaignFabric3", "BM_CampaignLocal"),
]

SUITES = {
    "resolve": RATIOS,
    "campaign": CAMPAIGN_RATIOS,
}


def load_times(path):
    """Context and {name: [real_time of each repetition]} of one JSON."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        print(f"perf_compare: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    times = {}
    for bench in doc.get("benchmarks", []):
        # Aggregate rows (mean/median/stddev) are recomputed from the
        # repetition rows below.
        if bench.get("run_type") == "aggregate":
            continue
        times.setdefault(bench["name"], []).append(float(bench["real_time"]))
    return doc.get("context", {}), times


def provenance(ctx):
    """The tree and host load a JSON was measured on, as one line.

    perf_smoke.sh stamps git_sha/git_dirty (fcr_git_* in the campaign
    JSON), source_digest and loadavg_start/loadavg_end; baselines recorded
    before a key existed print "-" for it.
    """
    sha = ctx.get("git_sha", ctx.get("fcr_git_sha", "-"))
    dirty = ctx.get("git_dirty", ctx.get("fcr_git_dirty", "-"))
    digest = ctx.get("source_digest", "-")
    # google-benchmark's own load_avg is taken as its run starts.
    loads = [ctx.get("loadavg_start", ctx.get("load_avg")),
             ctx.get("loadavg_end")]
    start, end = (f"{load[0]:.2f}" if load else "-" for load in loads)
    return (f"git {sha[:12]} dirty={dirty} source_digest={digest} "
            f"load {start} -> {end}")


def median(xs):
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def spread(xs):
    """MAD / median of the repetitions (0 for a single row)."""
    m = median(xs)
    return median([abs(x - m) for x in xs]) / m if m else 0.0


def ratio(times, num, den):
    """Ratio of the medians num/den, or None if either is absent."""
    if num not in times or den not in times:
        return None
    return median(times[num]) / median(times[den])


def report_spreads(label, times, names):
    """Prints MAD/median per benchmark; returns the names over the gate."""
    noisy = []
    for name in names:
        if name not in times:
            continue
        s = spread(times[name])
        print(f"perf_compare: {label} {name}: {len(times[name])} rep(s), "
              f"MAD/median {s:.3f}")
        if s > THRESHOLD - 1:
            noisy.append(name)
    return noisy


def main(argv):
    args = argv[1:]
    suite = "resolve"
    if args[:1] == ["--suite"]:
        if len(args) < 2 or args[1] not in SUITES:
            print(f"perf_compare: unknown suite {args[1:2]}; "
                  f"expected one of {sorted(SUITES)}", file=sys.stderr)
            return 2
        suite = args[1]
        args = args[2:]
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    fresh_ctx, fresh = load_times(args[0])
    base_ctx, base = load_times(args[1])
    print(f"perf_compare: fresh {args[0]}: {provenance(fresh_ctx)}")
    print(f"perf_compare: baseline {args[1]}: {provenance(base_ctx)}")

    build_type = fresh_ctx.get("fcr_build_type", "unknown")
    if build_type != "Release":
        print(f"perf_compare: fresh run was built as '{build_type}', not "
              "Release — timings are not comparable", file=sys.stderr)
        return 2

    gated = sorted({name for _, num, den in SUITES[suite] for name in (num, den)})
    report_spreads("fresh", fresh, gated)
    noisy = report_spreads("baseline", base, gated)
    if noisy:
        print(f"perf_compare: baseline {args[1]} is too noisy to gate against "
              f"(MAD/median above {THRESHOLD - 1:.2f}): {', '.join(noisy)}; "
              "re-record it on a quiet host", file=sys.stderr)
        return 2

    failed = False
    for label, num, den in SUITES[suite]:
        fresh_r = ratio(fresh, num, den)
        if fresh_r is None:
            print(f"perf_compare: FAIL [{label}]: fresh run is missing "
                  f"{num} or {den}", file=sys.stderr)
            failed = True
            continue
        base_r = ratio(base, num, den)
        if base_r is None:
            print(f"perf_compare: skip [{label}]: baseline predates "
                  f"{num}/{den}; fresh ratio = {fresh_r:.4f}")
            continue
        verdict = "FAIL" if fresh_r > base_r * THRESHOLD else "ok"
        print(f"perf_compare: {verdict} [{label}]: {num} / {den} = "
              f"{fresh_r:.4f} (baseline {base_r:.4f}, "
              f"limit {base_r * THRESHOLD:.4f})")
        if verdict == "FAIL":
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
