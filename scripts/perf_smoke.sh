#!/usr/bin/env bash
# Perf smoke: run the resolver + trial-engine micro-benchmarks and record
# the raw google-benchmark output in BENCH_resolve.json.
#
# RELEASE GATE: bench_micro stamps the CMake build type into the benchmark
# context (context.fcr_build_type, see bench/CMakeLists.txt). The committed
# BENCH_resolve.json is the reference other changes are compared against,
# so this script REFUSES to write it from anything but a Release build —
# a debug/RelWithDebInfo run once slipped into the baseline and made every
# later comparison meaningless.
#
# DEBUG-STAMP NORMALIZATION: google-benchmark also writes its OWN
# context.library_build_type, which records how *libbenchmark.so* was
# compiled — the distro package ships it without NDEBUG, so it stamps
# "debug" even under a full Release build of this repo. That stamp leaked
# into committed baselines and read as "these numbers are from a debug
# build". The honest split: the reporter library's own build type is
# preserved as context.benchmark_reporter_build_type, and
# context.library_build_type is set from fcr_build_type (the flags the
# measured code was actually compiled with). After normalization the gate
# below fails if anything but Release would still leak into BENCH_*.json.
#
# PROVENANCE: the benchmarked commit (git SHA + dirty flag) is exported as
# FCR_GIT_SHA / FCR_GIT_DIRTY and stamped into the context by bench_micro.
# A baseline recorded before its change is committed names the parent's
# SHA, so both JSON contexts also carry source_digest, the measured tree's
# own fingerprint (perfbench/run.py's recipe over src/ and bench/), and the
# host load average at the start and end of each measurement.
#
# TIMING GATE: absolute timings are machine-dependent and stay
# informational here; CI regression-gates on machine-independent RATIOS
# via scripts/perf_compare.py instead. Every benchmark runs 5 repetitions;
# perf_compare.py gates the medians and rejects a baseline whose
# repetitions spread wider than the gate.
#
# Usage: scripts/perf_smoke.sh [--build-dir DIR] [--out FILE]
#          [--campaign-out FILE]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=build
OUT=BENCH_resolve.json
CAMPAIGN_OUT=BENCH_campaign.json
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --campaign-out) CAMPAIGN_OUT="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 1 ;;
  esac
done

BIN="$BUILD_DIR/bench/bench_micro"
if [ ! -x "$BIN" ]; then
  echo "perf_smoke: $BIN not built (cmake --build $BUILD_DIR --target bench_micro)" >&2
  exit 1
fi

# Benchmark provenance: the exact commit (and whether the tree was dirty)
# these numbers came from.
FCR_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  FCR_GIT_DIRTY=1
else
  FCR_GIT_DIRTY=0
fi
# SHA-256 over the relative paths and bytes of src/ and bench/, first 16
# hex digits: perfbench/run.py's source_digest with bench/ for perfbench/.
SOURCE_DIGEST="$(python3 - <<'EOF'
import hashlib, os
h = hashlib.sha256()
for top in ("src", "bench"):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
print(h.hexdigest()[:16])
EOF
)"
loadavg() { python3 -c 'import json, os; print(json.dumps(os.getloadavg()))'; }
LOAD_START="$(loadavg)"
export FCR_GIT_SHA FCR_GIT_DIRTY

TMP="$(mktemp --suffix=.json)"
trap 'rm -f "$TMP"' EXIT

"$BIN" \
  --benchmark_filter='BM_SinrResolve/|BM_BatchResolve/|BM_FullExecution|BM_Trial|BM_DecideKernel|BM_ResolveMask|BM_DeploymentFactory|BM_MinPairwise|BM_Diameter' \
  --benchmark_repetitions=5 \
  --benchmark_out="$TMP" \
  --benchmark_out_format=json

# Normalize the reporter's debug stamp (see header comment), then refuse to
# publish anything that still is not a Release measurement.
BUILD_TYPE="$(python3 - "$TMP" "$SOURCE_DIGEST" "$LOAD_START" <<'EOF'
import json, os, sys
path, digest, load_start = sys.argv[1:4]
doc = json.load(open(path))
ctx = doc["context"]
fcr = ctx.get("fcr_build_type", "unknown")
reporter = ctx.get("library_build_type")
if reporter is not None:
    ctx["benchmark_reporter_build_type"] = reporter
ctx["library_build_type"] = fcr
ctx["source_digest"] = digest
ctx["loadavg_start"] = json.loads(load_start)
ctx["loadavg_end"] = list(os.getloadavg())
json.dump(doc, open(path, "w"), indent=1)
print(fcr)
EOF
)"
if [ "$BUILD_TYPE" != "Release" ]; then
  echo "perf_smoke: REFUSING to write $OUT: bench_micro was built as" \
       "'$BUILD_TYPE', not Release. Configure a Release tree, e.g.:" >&2
  echo "  cmake -B build-perf -S . -DCMAKE_BUILD_TYPE=Release &&" \
       "cmake --build build-perf --target bench_micro &&" \
       "scripts/perf_smoke.sh --build-dir build-perf" >&2
  exit 1
fi
LIB_TYPE="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["context"].get("library_build_type", "unknown"))
' "$TMP")"
if [ "$LIB_TYPE" != "Release" ]; then
  echo "perf_smoke: REFUSING to write $OUT: context.library_build_type is" \
       "'$LIB_TYPE' after normalization — a non-Release stamp would leak" \
       "into the committed baseline" >&2
  exit 1
fi

mv "$TMP" "$OUT"
trap - EXIT

# Non-gating speedup report (medians of the repetitions): batch and mask
# resolve vs the reference scan per n (mask also on the clustered and
# chain deployments), the incremental-instrumentation gain on the trial
# benches, the fast path vs the per-node virtual reference (SINR per n,
# and the engine-only radio pair the columnar-execution gate uses), the
# auto-dispatched decide kernel vs the same kernel pinned to the generic
# target, and the closest-pair sweep vs the per-point nearest loop.
python3 - "$OUT" <<'EOF' || true
import json, statistics, sys
reps = {}
for b in json.load(open(sys.argv[1]))["benchmarks"]:
    if b.get("run_type") != "aggregate":
        reps.setdefault(b["name"], []).append(b["real_time"])
runs = {name: statistics.median(ts) for name, ts in reps.items()}
for name, t in sorted(runs.items()):
    if not name.startswith("BM_SinrResolve/"):
        continue
    n = name.split("/")[1]
    batch = runs.get(f"BM_BatchResolve/{n}")
    if batch:
        print(f"perf_smoke: n={n}: scan {t/1e6:.3f} ms, batch {batch/1e6:.3f} ms, "
              f"speedup {t/batch:.2f}x")
    mask = runs.get(f"BM_ResolveMask/{n}")
    if batch and mask:
        print(f"perf_smoke: resolve-mask n={n}: id-vector {batch/1e6:.3f} ms, "
              f"mask {mask/1e6:.3f} ms, speedup {batch/mask:.2f}x")
    if mask:
        print(f"perf_smoke: mask vs scan n={n}: scan {t/1e6:.3f} ms, "
              f"mask {mask/1e6:.3f} ms, speedup {t/mask:.2f}x")
for kind in ("Clusters", "Chain"):
    mask = runs.get(f"BM_ResolveMask{kind}/4096")
    if mask:
        print(f"perf_smoke: resolve-mask {kind.lower()} n=4096: "
              f"{mask/1e6:.3f} ms")
rebuild = runs.get("BM_TrialInstrumentedRebuild/256")
incr = runs.get("BM_TrialWorkspace/256")
if rebuild and incr:
    print(f"perf_smoke: instrumented trial n=256: per-round rebuild "
          f"{rebuild/1e6:.3f} ms, incremental {incr/1e6:.3f} ms, "
          f"speedup {rebuild/incr:.2f}x")
for n in (256, 1024, 16384):
    generic = runs.get(f"BM_DecideKernelGeneric/{n}")
    lanes = runs.get(f"BM_DecideKernelLanes/{n}")
    if generic and lanes:
        print(f"perf_smoke: decide kernel n={n}: generic {generic/1e3:.2f} us, "
              f"dispatched {lanes/1e3:.2f} us, speedup {generic/lanes:.2f}x")
for n in (8, 16, 64, 256, 1024):
    virt = runs.get(f"BM_FullExecutionVirtual/{n}")
    fast = runs.get(f"BM_FullExecution/{n}")
    if virt and fast:
        print(f"perf_smoke: execution n={n}: reference {virt/1e6:.3f} ms, "
              f"fast {fast/1e6:.3f} ms, speedup {virt/fast:.2f}x")
virt = runs.get("BM_FullExecutionRadioVirtual/1024")
fast = runs.get("BM_FullExecutionRadio/1024")
if virt and fast:
    print(f"perf_smoke: radio execution n=1024 (engine only): reference "
          f"{virt/1e6:.3f} ms, fast {fast/1e6:.3f} ms, speedup {virt/fast:.2f}x")
sweep = runs.get("BM_MinPairwise/4096")
loop = runs.get("BM_MinPairwiseNearest/4096")
if sweep and loop:
    print(f"perf_smoke: closest pair n=4096: nearest loop {loop/1e3:.1f} us, "
          f"sweep {sweep/1e3:.1f} us, speedup {loop/sweep:.2f}x")
EOF

# Campaign fabric artifact (docs/ROBUSTNESS.md §6): wall-clock the same
# campaign once through the in-process LocalBackend and once sharded over a
# 3-worker fcrw fleet on a local unix socket, best of $CAMPAIGN_REPS.
# Socket framing, lease bookkeeping, and result merging are all inside the
# measured window, so BM_CampaignFabric3 / BM_CampaignLocal is the fabric's
# end-to-end overhead ratio — on a single core it hovers around 1.0, on a
# multi-core runner sharding pulls it below 1. perf_compare --suite campaign
# gates the ratio against the committed BENCH_campaign.json. The two CSVs
# are also compared bit-for-bit: a perf artifact measured from a diverging
# fabric run would be worse than a slow one.
FCRSIM_BIN="$BUILD_DIR/tools/fcrsim"
FCRW_BIN="$BUILD_DIR/tools/fcrw"
if [ ! -x "$FCRSIM_BIN" ] || [ ! -x "$FCRW_BIN" ]; then
  echo "perf_smoke: skipping $CAMPAIGN_OUT (fcrsim/fcrw not built in $BUILD_DIR)"
  echo "perf_smoke: wrote $OUT (fcr_build_type=$BUILD_TYPE," \
       "git=$FCR_GIT_SHA dirty=$FCR_GIT_DIRTY" \
       "source_digest=$SOURCE_DIGEST)"
  exit 0
fi

CDIR="$(mktemp -d "${TMPDIR:-/tmp}/fcr_perf_campaign.XXXXXX")"
trap 'rm -rf "$CDIR"' EXIT
CAMPAIGN=(--n 8192 --trials 64 --seed 7 --retries 3)
CAMPAIGN_REPS=3
LOAD_START="$(loadavg)"
LOCAL_NS=""
FABRIC_NS=""
for _ in $(seq 1 "$CAMPAIGN_REPS"); do
  s=$(date +%s%N)
  "$FCRSIM_BIN" "${CAMPAIGN[@]}" --csv "$CDIR/local.csv" > /dev/null
  e=$(date +%s%N)
  ns=$((e - s))
  if [ -z "$LOCAL_NS" ] || [ "$ns" -lt "$LOCAL_NS" ]; then LOCAL_NS=$ns; fi
done
for rep in $(seq 1 "$CAMPAIGN_REPS"); do
  SOCK="$CDIR/perf_$rep.sock"
  for w in 1 2 3; do
    "$FCRW_BIN" --socket "$SOCK" --name "perf$w" \
      --connect-retry-ms 20 --connect-attempts 200 \
      > "$CDIR/worker$w.log" 2>&1 &
  done
  s=$(date +%s%N)
  "$FCRSIM_BIN" "${CAMPAIGN[@]}" --fabric-socket "$SOCK" \
    --csv "$CDIR/fabric.csv" > "$CDIR/fabric.log"
  e=$(date +%s%N)
  wait  # workers exit on the coordinator's Shutdown broadcast
  ns=$((e - s))
  if [ -z "$FABRIC_NS" ] || [ "$ns" -lt "$FABRIC_NS" ]; then FABRIC_NS=$ns; fi
done
if ! cmp -s "$CDIR/local.csv" "$CDIR/fabric.csv"; then
  echo "perf_smoke: REFUSING to write $CAMPAIGN_OUT: the fabric campaign" \
       "diverged from the local run (bit-identity broken)" >&2
  diff "$CDIR/local.csv" "$CDIR/fabric.csv" | head -5 >&2
  exit 1
fi
if ! grep -q ", 0 trial(s) run locally" "$CDIR/fabric.log"; then
  echo "perf_smoke: REFUSING to write $CAMPAIGN_OUT: the fabric run fell" \
       "back to local execution — the number would not measure the fleet" >&2
  cat "$CDIR/fabric.log" >&2
  exit 1
fi

python3 - "$CAMPAIGN_OUT" "$BUILD_TYPE" "$LOCAL_NS" "$FABRIC_NS" \
  "$SOURCE_DIGEST" "$LOAD_START" <<'EOF'
import json, os, sys
out, build_type, local_ns, fabric_ns, digest, load_start = sys.argv[1:7]
doc = {
    "context": {
        "fcr_build_type": build_type,
        "library_build_type": build_type,
        "fcr_git_sha": os.environ.get("FCR_GIT_SHA", "unknown"),
        "fcr_git_dirty": os.environ.get("FCR_GIT_DIRTY", "0"),
        "source_digest": digest,
        "loadavg_start": json.loads(load_start),
        "loadavg_end": list(os.getloadavg()),
        "num_cpus": os.cpu_count(),
        "fcr_campaign_spec": "n=8192 trials=64 seed=7 retries=3 "
                             "workers=3 lease_trials=8 transport=unix-socket",
    },
    "benchmarks": [
        {"name": "BM_CampaignLocal", "run_type": "iteration",
         "real_time": float(local_ns), "time_unit": "ns"},
        {"name": "BM_CampaignFabric3", "run_type": "iteration",
         "real_time": float(fabric_ns), "time_unit": "ns"},
    ],
}
json.dump(doc, open(out, "w"), indent=1)
ratio = float(fabric_ns) / float(local_ns)
print(f"perf_smoke: campaign local {float(local_ns)/1e9:.3f} s, "
      f"3-worker fabric {float(fabric_ns)/1e9:.3f} s, "
      f"overhead ratio {ratio:.3f} ({os.cpu_count()} core(s))")
EOF

echo "perf_smoke: wrote $OUT and $CAMPAIGN_OUT" \
     "(fcr_build_type=$BUILD_TYPE, git=$FCR_GIT_SHA dirty=$FCR_GIT_DIRTY" \
     "source_digest=$SOURCE_DIGEST)"
