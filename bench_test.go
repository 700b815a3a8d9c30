package branchlab_test

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"branchlab"
	"branchlab/internal/experiments"
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
// bp.BlockRunner path a run with no observers takes (pure MPKI
// measurement) against the general loop with a collector attached,
// plus the pre-block per-instruction reference loop — the
// block-vs-per-instruction contrast recorded in EXPERIMENTS.md and
// gated by scripts/bench.sh. All replay the same recorded trace
// through TAGE-SC-L 8KB.
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

// branchObserverRef mirrors the optional predictor interface the
// measurement loop resolves, for the reference loop.
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
			p.Train(inst.IP, inst.Target, inst.Taken, pred)
		} else if inst.IsBranch() {
			if bo != nil {
				bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			}
		}
		st.Insts++
	}
	return st
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
// slice-granular cache in its two regimes: resident (unbounded, no
// store: every slice on the heap — the slice pin cost over zero-copy
// block serving, the common case) and evicted (capped, so every slice
// is pinned from the cache's private spill store). The resident/evicted
// ratio is the price of serving from the store; the resident number
// must track BenchmarkCoreRun/observers=off, since a resident replay is
// the same block loop plus one pin per slice. The evicted run keeps no
// slice on the heap; TestWarmReplayRSSFollowsCap checks that its
// resident set stays below one slice.
func BenchmarkTraceCacheSlicedReplay(b *testing.B) {
	const budget = 500_000
	const sliceInsts = 1 << 16
	spec, _ := branchlab.Workload("605.mcf_s")
	for _, tc := range []struct {
		name string
		cap  int64
	}{
		{"resident", 0},
		{"evicted", sliceInsts * 40}, // any cap > 0 spills
	} {
		b.Run(tc.name, func(b *testing.B) {
			cache := branchlab.NewSlicedTraceCache(tc.cap, sliceInsts)
			defer cache.Close()
			tr := recordCached(b, cache, spec, budget)
			b.SetBytes(budget)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				branchlab.Run(tr.BlockStream(0), branchlab.NewTAGESCL(8))
			}
		})
	}
}

// BenchmarkEvictedRefill measures how a capped cache serves a slice:
// from the trace store the recording streamed into — pinning the
// slice's verified mapping, faulting its pages back in by reading every
// instruction, and unpinning, which releases the pages again — for a
// window near the front of the trace and one at its end. The contract
// under test is position independence: pos=first and pos=last must
// coincide, since serving from the store never regenerates the prefix.
func BenchmarkEvictedRefill(b *testing.B) {
	const budget = 2_000_000
	const window = 1 << 15
	spec, _ := branchlab.Workload("605.mcf_s")
	st, err := tracestore.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	// The recording streams every slice into the store, and the cache
	// keeps none of them on the heap.
	cache := tracecache.NewSliced(window*40, window)
	cache.SetStore(st)
	recordCached(b, cache, spec, budget)
	key := tracestore.Key{Name: spec.Name, Input: 0, Budget: budget, SliceLen: window}
	for _, pos := range []struct {
		name string
		idx  int
	}{
		{"first", 2},
		{"last", budget/window - 1},
	} {
		b.Run("mode=store/pos="+pos.name, func(b *testing.B) {
			b.SetBytes(window * 40)
			for i := 0; i < b.N; i++ {
				p, err := st.PinSlice(key, pos.idx, window)
				if err != nil {
					b.Fatal(err)
				}
				var sum uint64
				for _, inst := range p.PinnedInsts() {
					sum += inst.DstValue
				}
				p.Unpin()
				if sum == 0 {
					b.Fatal("served an empty window")
				}
			}
		})
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
