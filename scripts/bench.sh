#!/usr/bin/env bash
# bench.sh — run the tracked hot-path benchmarks, write their results
# as JSON (the first argument; default BENCH_PR9.json, the name of the
# last committed run) and diff the replay-loop benchmarks against a
# committed baseline (BASELINE; default BENCH_PR8.json) so regressions
# in the block pipeline fail loudly.
#
# Tracked benchmarks (the perf trajectory of the replay refactors):
#   BenchmarkRunAll/cache={off,on}      - full `-run all` registry, uncached vs cached;
#                                         with BRANCHLAB_TRACESTORE set, cache=on
#                                         replays from the persistent store (reps
#                                         measure replay, not recording) and its
#                                         store hit rate lands in the JSON as
#                                         store_hit_rate
#   BenchmarkCoreRun/observers={off,on} - block replay loop, fast path vs fan-out
#   BenchmarkCoreRun/perinst-reference  - pre-block per-instruction loop (baseline):
#                                         one interface Next call and one 40-byte
#                                         copy per instruction, over an iterator
#                                         local to bench_test.go
#   BenchmarkTAGEPredictTrain/{packed,tage-reference}
#                                       - the TAGE-SC-L engine alone (internal/tage):
#                                         bit-packed struct-of-arrays vs the scalar
#                                         array-of-structs engine it replaced, the
#                                         test-only Reference oracle
#   BenchmarkTraceCacheHit              - cache serve-from-memory cost
#   BenchmarkTraceCacheSlicedReplay/{resident,evicted}
#                                       - slice-cache replay: zero-copy heap
#                                         serving (uncapped, no store) vs a
#                                         capped cache pinning every slice
#                                         from its private spill store
#   BenchmarkEvictedRefill/mode=store/pos={first,last}
#                                       - serving one slice from the trace
#                                         store; must be position-independent
#   BenchmarkFig5Parallel/workers=N     - engine scaling (meaningful on multi-core hosts)
#   BenchmarkPipelineALU                - timing model on a saturated 100K-instruction
#                                         independent-ALU stream (internal/pipeline):
#                                         the width limiters' worst case
#   BenchmarkPipelineTAGE               - timing model with TAGE-SC-L 8KB: annotation,
#                                         prediction and schedule passes composed
#   BenchmarkPipelineSchedule           - the schedule pass alone on one Quick trace
#                                         over a precomputed annotation and outcome
#                                         stream: an IPC driver's per-cell cost
#   BenchmarkPipelineScheduleWide       - the same at 16x (96-wide, 896-entry store
#                                         queue): the store-forwarding window's and
#                                         width limiters' wide case
#   BenchmarkScreen                     - one Quick trace's H2P screening
#                                         (internal/experiments): the TAGE-SC-L 8KB
#                                         outcome stream plus the collector replay
#   BenchmarkDepgraph                   - Table III's dependency analysis of one Quick
#                                         trace's top H2P (internal/depgraph): window
#                                         5000, at most 4000 analyzed executions
#   BenchmarkCNNTrain                   - training one §V-C helper model at the
#                                         experiment configuration on a fixed
#                                         sample set (internal/cnn)
#   BenchmarkCNNHelper                  - the whole §V-C cnn driver on the Quick
#                                         configuration, uncached: its training
#                                         and deployment-replay stage, then its
#                                         scoring stage
#   BenchmarkStoreSlice/{write,verify}  - the persistent trace store on one
#                                         200k-instruction slice
#                                         (internal/tracestore): writing the
#                                         file, and cold-pinning it through a
#                                         fresh store (map plus full checksum
#                                         verification); reported in MB/s too
#   BenchmarkStoreFill/store={off,on}   - the registry's Quick traces recorded
#                                         through one uncapped cache
#                                         (internal/experiments): RAM only, and
#                                         streamed into a fresh trace store
#                                         while they record (a cold store fill)
#
# Three regression checks run after the benchmarks:
#   1. Intra-run gate (host-independent): the block replay loop
#      (CoreRun/observers=off) is compared against the pre-block
#      per-instruction reference compiled into the same binary and run
#      on the same host (CoreRun/perinst-reference). A ratio above
#      BLOCK_MAX fails the script — the loud failure for replay-loop
#      regressions, meaningful on any machine. Enforced when both
#      samples averaged >= 3 iterations (BENCHTIME >= 3x); a
#      single-iteration sample only reports.
#   2. Engine gate (host-independent, same shape as 1): the packed
#      TAGE engine (TAGEPredictTrain/packed) against the scalar
#      reference engine in the same binary and run
#      (TAGEPredictTrain/tage-reference). The packed engine exists to
#      be faster; a ratio above TAGE_MAX fails the script.
#   3. Cross-run diff vs the committed BENCH_PR8.json baseline:
#      printed for trend tracking; it only FAILS when BASELINE_GATE=1,
#      because absolute ns/op from a different host (e.g. a CI runner
#      vs the machine that recorded the baseline) cannot gate
#      correctly. Set BASELINE_GATE=1 when re-measuring on the
#      baseline's host.
#
# A missing baseline file or a tracked benchmark that vanished from the
# benchmark output is a hard error with a clear message — not a silent
# skip or a confusing parse failure downstream.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=1x scripts/bench.sh            # CI smoke (one iteration each)
#   BENCHTIME=5s scripts/bench.sh            # stable numbers for doc updates
#   BRANCHLAB_TRACESTORE=$(mktemp -d) scripts/bench.sh
#                                            # cache=on replays through a
#                                            # persistent store (warm after
#                                            # the first iteration)
#   BLOCK_MAX=1.5 scripts/bench.sh           # loosen the replay intra-run gate
#   TAGE_MAX=0.9 scripts/bench.sh            # tighten the engine gate
#   BASELINE_GATE=1 REGRESSION_MAX=1.3 ...   # enforce the baseline diff
#   BASELINE=/dev/null scripts/bench.sh      # skip the baseline diff
set -eu
cd "$(dirname "$0")/.." || exit 1

out="${1:-BENCH_PR9.json}"
benchtime="${BENCHTIME:-1s}"
baseline="${BASELINE:-BENCH_PR8.json}"
regmax="${REGRESSION_MAX:-1.30}"
blockmax="${BLOCK_MAX:-1.25}"
tagemax="${TAGE_MAX:-1.00}"
basegate="${BASELINE_GATE:-0}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run '^$' \
  -bench 'BenchmarkRunAll$|BenchmarkCoreRun$|BenchmarkTAGEPredictTrain$|BenchmarkTraceCacheHit$|BenchmarkTraceCacheSlicedReplay$|BenchmarkEvictedRefill$|BenchmarkFig5Parallel$|BenchmarkPipelineALU$|BenchmarkPipelineTAGE$|BenchmarkPipelineSchedule$|BenchmarkPipelineScheduleWide$|BenchmarkScreen$|BenchmarkDepgraph$|BenchmarkCNNTrain$|BenchmarkCNNHelper$|BenchmarkStoreSlice$|BenchmarkStoreFill$' \
  -benchtime "$benchtime" . ./internal/tage ./internal/pipeline ./internal/experiments ./internal/depgraph ./internal/cnn ./internal/tracestore | tee "$raw" >&2

awk -v benchtime="$benchtime" '
  /^Benchmark/ && /ns\/op/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip GOMAXPROCS suffix
    iters = $2
    ns = $3
    extra = ""
    # Optional metrics (b.ReportMetric) ride on the same line as
    # "<value> <unit>" pairs; capture the store hit rate when present.
    for (i = 4; i < NF; i++)
      if ($(i + 1) == "store-hit-rate") extra = sprintf(", \"store_hit_rate\": %s", $i)
    if (n++) printf ",\n"
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s%s}", name, iters, ns, extra
  }
  BEGIN { printf "{\n\"benchtime\": \"%s\",\n\"results\": [\n", benchtime }
  END   { printf "\n]\n}\n" }
' "$raw" > "$out"

echo "wrote $out" >&2

# --- sanity: every tracked benchmark must be present -------------------
# A benchmark that silently disappears (renamed, deleted, filtered out)
# would otherwise just vanish from the JSON and turn later baseline
# diffs into head-scratchers. The machine-dependent sub-benchmarks
# (workers=N for N = NumCPU) are not in this list.
parse() { sed -n 's/.*"name": "\([^"]*\)".*"ns_per_op": \([0-9.e+]*\).*/\1 \2/p' "$1"; }

required='BenchmarkRunAll/cache=off
BenchmarkRunAll/cache=on
BenchmarkCoreRun/observers=off
BenchmarkCoreRun/observers=on
BenchmarkCoreRun/perinst-reference
BenchmarkTAGEPredictTrain/packed
BenchmarkTAGEPredictTrain/tage-reference
BenchmarkTraceCacheHit
BenchmarkTraceCacheSlicedReplay/resident
BenchmarkTraceCacheSlicedReplay/evicted
BenchmarkEvictedRefill/mode=store/pos=first
BenchmarkEvictedRefill/mode=store/pos=last
BenchmarkFig5Parallel/workers=1
BenchmarkPipelineALU
BenchmarkPipelineTAGE
BenchmarkPipelineSchedule
BenchmarkPipelineScheduleWide
BenchmarkScreen
BenchmarkDepgraph
BenchmarkCNNTrain
BenchmarkCNNHelper
BenchmarkStoreSlice/write
BenchmarkStoreSlice/verify
BenchmarkStoreFill/store=off
BenchmarkStoreFill/store=on'
missing=0
while IFS= read -r name; do
  if ! parse "$out" | awk -v n="$name" '$1 == n { found = 1 } END { exit !found }'; then
    echo "bench.sh: tracked benchmark $name missing from the output — renamed or deleted?" >&2
    missing=1
  fi
done <<EOF
$required
EOF
if [ "$missing" -ne 0 ]; then
  echo "bench.sh: update the tracked set in scripts/bench.sh if the rename is intentional" >&2
  exit 1
fi

# --- regression checks -------------------------------------------------

# 1. Intra-run gate: block replay vs the per-instruction reference in
# the same binary on the same host. Host-independent; enforced only
# when both samples averaged >= 3 iterations — a single-iteration
# sample (BENCHTIME=1x) is one scheduler blip away from a false alarm,
# so it reports instead of failing.
parseiters() { sed -n 's/.*"name": "'"$2"'", "iterations": \([0-9]*\),.*/\1/p' "$1"; }
block_ns="$(parse "$out" | awk '$1 == "BenchmarkCoreRun/observers=off" { print $2 }')"
ref_ns="$(parse "$out" | awk '$1 == "BenchmarkCoreRun/perinst-reference" { print $2 }')"
block_it="$(parseiters "$out" 'BenchmarkCoreRun\/observers=off')"
ref_it="$(parseiters "$out" 'BenchmarkCoreRun\/perinst-reference')"
if [ -z "$block_ns" ] || [ -z "$ref_ns" ]; then
  echo "bench.sh: could not parse the intra-run gate samples from $out" >&2
  exit 1
fi
ratio="$(awk -v a="$block_ns" -v b="$ref_ns" 'BEGIN { printf "%.3f", a/b }')"
echo "block replay vs per-instruction reference (same run): ${ratio}x (gate ${blockmax}x)" >&2
if [ "${block_it:-0}" -lt 3 ] || [ "${ref_it:-0}" -lt 3 ]; then
  echo "  (single-sample timings — gate reported, not enforced; use BENCHTIME>=3x to enforce)" >&2
elif [ "$(awk -v r="$ratio" -v m="$blockmax" 'BEGIN { print (r > m) ? 1 : 0 }')" = 1 ]; then
  echo "bench.sh: block replay loop is ${ratio}x the per-instruction reference (max ${blockmax}x) — replay-loop regression" >&2
  exit 1
fi

# 2. Engine gate: the packed TAGE engine vs the scalar reference engine
# in the same binary on the same run. Host-independent, same
# single-iteration caveat as gate 1. TAGE_MAX defaults to 1.00 — the
# packed engine must at minimum not be slower than the engine it
# replaced (locally it measures well under that; the slack absorbs
# scheduler noise on loaded CI runners).
packed_ns="$(parse "$out" | awk '$1 == "BenchmarkTAGEPredictTrain/packed" { print $2 }')"
tref_ns="$(parse "$out" | awk '$1 == "BenchmarkTAGEPredictTrain/tage-reference" { print $2 }')"
packed_it="$(parseiters "$out" 'BenchmarkTAGEPredictTrain\/packed')"
tref_it="$(parseiters "$out" 'BenchmarkTAGEPredictTrain\/tage-reference')"
if [ -z "$packed_ns" ] || [ -z "$tref_ns" ]; then
  echo "bench.sh: could not parse the engine gate samples from $out" >&2
  exit 1
fi
ratio="$(awk -v a="$packed_ns" -v b="$tref_ns" 'BEGIN { printf "%.3f", a/b }')"
echo "packed TAGE engine vs scalar reference (same run): ${ratio}x (gate ${tagemax}x)" >&2
if [ "${packed_it:-0}" -lt 3 ] || [ "${tref_it:-0}" -lt 3 ]; then
  echo "  (single-sample timings — gate reported, not enforced; use BENCHTIME>=3x to enforce)" >&2
elif [ "$(awk -v r="$ratio" -v m="$tagemax" 'BEGIN { print (r > m) ? 1 : 0 }')" = 1 ]; then
  echo "bench.sh: packed TAGE engine is ${ratio}x the scalar reference (max ${tagemax}x) — engine regression" >&2
  exit 1
fi

# 3. Cross-run diff vs the committed baseline (RunAll and CoreRun; the
# other benchmarks are new in this PR or measure a
# path whose work changed shape between PRs and so have no comparable
# baseline). Printed for trend tracking; enforced only with
# BASELINE_GATE=1 since absolute ns/op only compare on the host that
# recorded the baseline. BASELINE=/dev/null skips the diff explicitly;
# anything else must exist.
if [ "$baseline" = "/dev/null" ]; then
  echo "baseline diff skipped (BASELINE=/dev/null)" >&2
else
  if [ ! -f "$baseline" ]; then
    echo "bench.sh: baseline $baseline not found — commit it, point BASELINE at the right file, or set BASELINE=/dev/null to skip the diff" >&2
    exit 1
  fi
  status=0
  echo "diff vs $baseline (informational unless BASELINE_GATE=1; max ${regmax}x):" >&2
  while read -r name ns; do
    case "$name" in
      BenchmarkRunAll/*|BenchmarkCoreRun/observers=*) ;;
      *) continue ;;
    esac
    base_ns="$(parse "$baseline" | awk -v n="$name" '$1 == n { print $2 }')"
    if [ -z "$base_ns" ]; then
      echo "  $name: not in $baseline (new or machine-dependent); skipped" >&2
      continue
    fi
    ratio="$(awk -v a="$ns" -v b="$base_ns" 'BEGIN { printf "%.3f", a/b }')"
    flag=ok
    if [ "$(awk -v r="$ratio" -v m="$regmax" 'BEGIN { print (r > m) ? 1 : 0 }')" = 1 ]; then
      flag=REGRESSION
      status=1
    fi
    printf '  %-36s %14.0f -> %14.0f ns/op  %sx %s\n' \
      "$name" "$base_ns" "$ns" "$ratio" "$flag" >&2
  done <<EOF
$(parse "$out")
EOF
  if [ "$status" -ne 0 ] && [ "$basegate" = 1 ]; then
    echo "bench.sh: replay-loop regression exceeds ${regmax}x vs $baseline" >&2
    exit 1
  fi
fi
