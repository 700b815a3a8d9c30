package branchlab_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"branchlab"
	"branchlab/internal/experiments"
	"branchlab/internal/program"
	"branchlab/internal/report"
	"branchlab/internal/tage"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
)

// One benchmark per table and figure of the paper. Each iteration
// regenerates the artifact end to end (workload synthesis, prediction,
// screening, pipeline timing) at the Quick configuration; run
// cmd/experiments for the full-budget versions recorded in
// EXPERIMENTS.md.

// mustRun runs a driver to completion, failing the benchmark on a run
// error.
func mustRun(b *testing.B, r experiments.Runner, cfg experiments.Config) *report.Artifact {
	b.Helper()
	art, err := r.RunCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return art
}

func benchExperiment(b *testing.B, id string) {
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not found", id)
	}
	cfg := experiments.Quick()
	var sink *report.Artifact
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = mustRun(b, r, cfg)
	}
	if sink == nil || sink.ID != id {
		b.Fatal("experiment produced no artifact")
	}
}

func BenchmarkFig1(b *testing.B)       { benchExperiment(b, "fig1") }
func BenchmarkTable1(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkFig2(b *testing.B)       { benchExperiment(b, "fig2") }
func BenchmarkTable2(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)       { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkTable3(b *testing.B)     { benchExperiment(b, "table3") }
func BenchmarkFig6(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)      { benchExperiment(b, "fig10") }
func BenchmarkAllocStats(b *testing.B) { benchExperiment(b, "alloc") }
func BenchmarkCNNHelper(b *testing.B)  { benchExperiment(b, "cnn") }
func BenchmarkPhaseCond(b *testing.B)  { benchExperiment(b, "phasecond") }

// BenchmarkFig5Parallel contrasts the engine at 1 worker against
// NumCPU workers on the heaviest IPC sweep; the ratio of the two
// timings is the engine speedup recorded in EXPERIMENTS.md.
func BenchmarkFig5Parallel(b *testing.B) {
	r, ok := experiments.ByID("fig5")
	if !ok {
		b.Fatal("fig5 not found")
	}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Quick()
			cfg.Workers = workers
			var sink *report.Artifact
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = mustRun(b, r, cfg)
			}
			if sink == nil || sink.ID != "fig5" {
				b.Fatal("experiment produced no artifact")
			}
		})
	}
}

// BenchmarkRunAll is the `cmd/experiments -run all` hot path: every
// driver in the registry, end to end, with the shared trace cache off
// and on. The cache=off/cache=on ratio is the invocation-level speedup
// from recording each (workload, input) trace once instead of once per
// driver; scripts/bench.sh records both in the BENCH JSON.
//
// With BRANCHLAB_TRACESTORE set (scripts/bench.sh passes it through),
// cache=on attaches the persistent store at that directory: after the
// first iteration populates it, every fresh cache restores its traces
// from disk instead of recording, so the reps measure replay — the
// steady state a CI warm cache provides — and the sub-benchmark
// reports the store hit rate alongside ns/op.
func BenchmarkRunAll(b *testing.B) {
	storeDir := os.Getenv("BRANCHLAB_TRACESTORE")
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			var store *tracestore.Store
			if cached && storeDir != "" {
				var err error
				store, err = tracestore.Open(storeDir, 0)
				if err != nil {
					b.Fatal(err)
				}
				defer store.Close()
			}
			var sink *report.Artifact
			for i := 0; i < b.N; i++ {
				cfg := experiments.Quick()
				if cached {
					cfg.Cache = tracecache.New(0)
					cfg.Cache.SetStore(store)
				}
				for _, r := range experiments.All() {
					sink = mustRun(b, r, cfg)
				}
			}
			if sink == nil {
				b.Fatal("experiments produced no artifact")
			}
			if store != nil {
				st := store.Stats()
				hits := st.HeaderHits + st.SliceHits
				if total := hits + st.HeaderMisses + st.SliceMisses; total > 0 {
					b.ReportMetric(float64(hits)/float64(total), "store-hit-rate")
				}
			}
		})
	}
}

// BenchmarkCoreRun isolates the core.RunBlocks replay loop: the
// no-observer fast path (pure MPKI measurement) against the fan-out
// path with a collector attached, plus the pre-block per-instruction
// reference loop — the block-vs-per-instruction contrast recorded in
// EXPERIMENTS.md and gated by scripts/bench.sh. All replay the same
// recorded trace through TAGE-SC-L 8KB.
func BenchmarkCoreRun(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	tr := branchlab.RecordTrace(spec, 0, 500_000)
	b.Run("observers=off", func(b *testing.B) {
		b.SetBytes(500_000)
		for i := 0; i < b.N; i++ {
			branchlab.Run(tr.BlockStream(0), branchlab.NewTAGESCL(8))
		}
	})
	b.Run("observers=on", func(b *testing.B) {
		b.SetBytes(500_000)
		for i := 0; i < b.N; i++ {
			branchlab.Run(tr.BlockStream(0), branchlab.NewTAGESCL(8), branchlab.NewCollector(125_000))
		}
	})
	b.Run("perinst-reference", func(b *testing.B) {
		insts := make([]branchlab.Inst, tr.Len())
		for i := range insts {
			insts[i] = tr.At(i)
		}
		b.SetBytes(500_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runPerInstReference(&perInstReader{insts: insts}, branchlab.NewTAGESCL(8))
		}
	})
}

// targetTrainerRef / branchObserverRef mirror the optional predictor
// interfaces the measurement loop resolves, for the reference loop.
type targetTrainerRef interface {
	TrainWithTarget(ip, target uint64, taken, pred bool)
}
type branchObserverRef interface {
	ObserveBranch(ip, target uint64, kind branchlab.Kind, taken bool)
}

// instReader is the per-instruction read contract the block path
// replaced. It survives only here, as the baseline's shape.
type instReader interface {
	Next(inst *branchlab.Inst) bool
}

// perInstReader serves a recorded trace one instruction at a time:
// each Next copies one 40-byte record out of the array.
type perInstReader struct {
	insts []branchlab.Inst
	pos   int
}

func (r *perInstReader) Next(inst *branchlab.Inst) bool {
	if r.pos >= len(r.insts) {
		return false
	}
	*inst = r.insts[r.pos]
	r.pos++
	return true
}

// runPerInstReference is the pre-block measurement loop — one
// interface Next call and one 40-byte copy per instruction — kept as
// the benchmark baseline the block pipeline is measured against.
func runPerInstReference(s instReader, p branchlab.Predictor) branchlab.RunStats {
	tt, _ := p.(targetTrainerRef)
	bo, _ := p.(branchObserverRef)
	var st branchlab.RunStats
	var inst branchlab.Inst
	for s.Next(&inst) {
		if inst.IsCondBranch() {
			st.CondExecs++
			pred := p.Predict(inst.IP)
			if pred != inst.Taken {
				st.Mispreds++
			}
			if tt != nil {
				tt.TrainWithTarget(inst.IP, inst.Target, inst.Taken, pred)
			} else {
				p.Train(inst.IP, inst.Taken, pred)
			}
		} else if inst.IsBranch() {
			if bo != nil {
				bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			}
		}
		st.Insts++
	}
	return st
}

// BenchmarkRecordSharded contrasts sequential trace recording with
// sharded generation at NumCPU workers, through the cache's ingest path
// (Spec.RecordSlicesCtx) with one slice per shard: on a multi-core host
// the shards generate concurrently; on one core the two coincide
// (sharding costs prefix regeneration).
func BenchmarkRecordSharded(b *testing.B) {
	const budget = 500_000
	spec, _ := branchlab.Workload("605.mcf_s")
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, shards := range counts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.SetBytes(budget)
			pool := branchlab.NewEnginePool(shards)
			sliceLen := uint64((budget + shards - 1) / shards)
			for i := 0; i < b.N; i++ {
				if _, _, err := spec.RecordSlicesCtx(context.Background(), 0, budget, sliceLen, pool, shards, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// recordCached is RecordTraceCachedCtx under the background context,
// failing the benchmark on error.
func recordCached(b *testing.B, cache *branchlab.TraceCache, spec *branchlab.WorkloadSpec, budget uint64) branchlab.Replayable {
	b.Helper()
	tr, err := branchlab.RecordTraceCachedCtx(context.Background(), cache, spec, 0, budget)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkTraceCacheHit measures the cache's serve-from-memory cost
// (lock, header lookup, view construction) against the recording it
// avoids.
func BenchmarkTraceCacheHit(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	cache := branchlab.NewTraceCache(0)
	recordCached(b, cache, spec, 500_000) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recordCached(b, cache, spec, 500_000)
	}
}

// BenchmarkTraceCacheSlicedReplay measures a full replay through the
// slice-granular cache in its two regimes: resident (unbounded cap —
// the slice pin cost over zero-copy block serving, the common case) and
// evicted (a cap of one slice, so every slice re-materializes through
// the deterministic skim path — the worst case the LRU converts misses
// into). The resident/evicted ratio is the price of a cap miss; the
// resident number must track BenchmarkCoreRun/observers=off, since a
// resident replay is the same block loop plus one pin per slice. The
// evicted run reports peak accounted residency, which must stay below
// one whole-trace footprint (the memory bound slice eviction exists to
// provide).
func BenchmarkTraceCacheSlicedReplay(b *testing.B) {
	const budget = 500_000
	const sliceInsts = 1 << 16
	spec, _ := branchlab.Workload("605.mcf_s")
	for _, tc := range []struct {
		name string
		cap  int64
	}{
		{"resident", 0},
		{"evicted", sliceInsts * 40}, // one slice's bytes (Inst is 40B)
	} {
		b.Run(tc.name, func(b *testing.B) {
			cache := branchlab.NewSlicedTraceCache(tc.cap, sliceInsts)
			tr := recordCached(b, cache, spec, budget)
			b.SetBytes(budget)
			b.ResetTimer()
			var peak int64
			for i := 0; i < b.N; i++ {
				branchlab.Run(tr.BlockStream(0), branchlab.NewTAGESCL(8))
				if st := cache.Stats(); st.BytesInUse > peak {
					peak = st.BytesInUse
				}
			}
			b.ReportMetric(float64(peak)/(1<<20), "peak-resident-MiB")
		})
	}
}

// BenchmarkEvictedRefill measures the trace cache's evicted-slice
// refill in its two regimes: the skim path (regenerate the whole
// prefix, then the window — O(prefix + window)) against the checkpoint
// path (resume from the nearest stored checkpoint — O(window)), for a
// window near the front of the trace and one at its end. The contract
// under test is position independence: ckpt/first and ckpt/last must
// coincide while skim/last scales with the trace length — the refill
// asymmetry that capped how aggressively the slice cache could evict.
// The skim/ckpt ratio at pos=last is recorded in EXPERIMENTS.md and
// BENCH_PR5.json.
func BenchmarkEvictedRefill(b *testing.B) {
	const budget = 2_000_000
	const window = 1 << 15
	spec, _ := branchlab.Workload("605.mcf_s")
	// One checkpointed recording, as the cache performs on a miss; the
	// header's checkpoint list is what the refills below resume from.
	_, cks, err := spec.RecordSlicesCtx(context.Background(), 0, budget, window, nil, 1, window, nil)
	if err != nil {
		b.Fatal(err)
	}
	if len(cks) == 0 {
		b.Fatal("workload captured no checkpoints")
	}
	for _, pos := range []struct {
		name string
		lo   uint64
	}{
		// Captures land at the first safe point after each multiple of
		// the spacing, so the earliest window with a checkpoint at or
		// below it starts at 2*window; lo = window would find none and
		// both modes would skim.
		{"first", 2 * window},
		{"last", budget - window},
	} {
		for _, mode := range []string{"skim", "ckpt"} {
			b.Run(fmt.Sprintf("mode=%s/pos=%s", mode, pos.name), func(b *testing.B) {
				b.SetBytes(window)
				for i := 0; i < b.N; i++ {
					var ck *program.Checkpoint // nil: skim from zero
					if mode == "ckpt" {
						ck = program.NearestCheckpoint(cks, pos.lo)
					}
					got, err := spec.RecordRangeFrom(0, budget, ck, pos.lo, pos.lo+window)
					if err != nil {
						b.Fatal(err)
					}
					if uint64(len(got)) != window {
						b.Fatalf("refill returned %d insts, want %d", len(got), window)
					}
				}
			})
		}
	}
}

// --- ablations: the design choices DESIGN.md calls out -----------------

// BenchmarkAblationHistoryLengths reports TAGE accuracy as the number of
// tagged tables varies, isolating the value of the geometric history
// series.
func BenchmarkAblationHistoryLengths(b *testing.B) {
	spec, _ := branchlab.Workload("641.leela_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, tables := range []int{2, 6, 10} {
		b.Run(byTables(tables), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tage.Config8KB()
				cfg.NumTables = tables
				st := branchlab.Run(tr.BlockStream(0), tage.New(cfg))
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

func byTables(n int) string {
	return map[int]string{2: "tables=2", 6: "tables=6", 10: "tables=10"}[n]
}

// BenchmarkAblationSC isolates the statistical corrector's contribution.
func BenchmarkAblationSC(b *testing.B) {
	spec, _ := branchlab.Workload("657.xz_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, useSC := range []bool{false, true} {
		name := "sc=off"
		if useSC {
			name = "sc=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tage.Config8KB()
				cfg.UseSC = useSC
				st := branchlab.Run(tr.BlockStream(0), tage.New(cfg))
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

// BenchmarkAblationLoop isolates the loop predictor's contribution.
func BenchmarkAblationLoop(b *testing.B) {
	spec, _ := branchlab.Workload("623.xalancbmk_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, useLoop := range []bool{false, true} {
		name := "loop=off"
		if useLoop {
			name = "loop=on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := tage.Config8KB()
				cfg.UseLoop = useLoop
				st := branchlab.Run(tr.BlockStream(0), tage.New(cfg))
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

// BenchmarkPredictorZoo is the CBP-style comparison: every baseline
// predictor over the same trace, accuracy reported as a metric.
func BenchmarkPredictorZoo(b *testing.B) {
	spec, _ := branchlab.Workload("631.deepsjeng_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, name := range []string{
		"static-taken", "bimodal", "gshare", "local", "perceptron", "ppm",
		"tournament", "tage-sc-l-8", "tage-sc-l-64",
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := branchlab.NewPredictor(name)
				if err != nil {
					b.Fatal(err)
				}
				st := branchlab.Run(tr.BlockStream(0), p)
				b.ReportMetric(st.Accuracy(), "accuracy")
			}
		})
	}
}

// BenchmarkPipelineScalePerfectBP sanity-checks the timing model: IPC
// must grow monotonically with pipeline scale under perfect prediction.
func BenchmarkPipelineScalePerfectBP(b *testing.B) {
	spec, _ := branchlab.Workload("600.perlbench_s")
	tr := branchlab.RecordTrace(spec, 0, 300_000)
	for _, scale := range []int{1, 4, 16} {
		b.Run(byScale(scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := branchlab.SimulateIPC(tr.BlockStream(0),
					branchlab.SkylakeConfig().Scaled(scale),
					branchlab.PipelineOptions{PerfectBP: true})
				b.ReportMetric(res.IPC, "IPC")
			}
		})
	}
}

func byScale(k int) string {
	return map[int]string{1: "scale=1x", 4: "scale=4x", 16: "scale=16x"}[k]
}

// BenchmarkSimulationThroughput measures raw simulator speed
// (instructions per second through TAGE-SC-L 8KB + collector).
func BenchmarkSimulationThroughput(b *testing.B) {
	spec, _ := branchlab.Workload("605.mcf_s")
	tr := branchlab.RecordTrace(spec, 0, 500_000)
	b.SetBytes(500_000) // one "byte" per instruction: MB/s == M instrs/s
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		branchlab.Run(tr.BlockStream(0), branchlab.NewTAGESCL(8))
	}
}
