package experiments

import (
	"reflect"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
)

// screenFused is the screening the replay replaced and its oracle: one
// core.Run pass of TAGE-SC-L 8KB with the collector as its observer.
func screenFused(tr trace.Replayable, sliceLen uint64) (*core.H2PReport, *core.Collector) {
	col := core.NewCollector(sliceLen)
	core.RunBlocks(tr.BlockStream(0), tage.New(tage.Config8KB()), col)
	return core.PaperCriteria().Scaled(sliceLen).Screen(col), col
}

// TestScreenReplayMatchesFused checks screenBranches — a collector
// replayed against the memoized 8KB outcome stream — against the fused
// screening on every Quick input-0 SPECint-like and LCF trace: the same
// slices, per-branch totals, H2P report and H2P set.
func TestScreenReplayMatchesFused(t *testing.T) {
	cfg := Quick()
	cfg.Cache = cfg.NewCache(0)
	specs := append(workload.SPECint2017Like(), workload.LCFLike()...)
	if testing.Short() {
		specs = specs[:3]
	}
	for _, s := range specs {
		tr := mustRecord(t, cfg, s, 0)
		rep, col := screenBranches(cfg, s, 0, tr)
		wantRep, wantCol := screenFused(tr, cfg.SliceLen)
		if !reflect.DeepEqual(col.Slices, wantCol.Slices) {
			t.Errorf("%s: slice statistics differ from the fused screening", s.Name)
		}
		if !reflect.DeepEqual(col.Totals(), wantCol.Totals()) {
			t.Errorf("%s: per-branch totals differ from the fused screening", s.Name)
		}
		if !reflect.DeepEqual(rep.Set(), wantRep.Set()) {
			t.Errorf("%s: H2P set %v, fused %v", s.Name, sortedIPs(rep.Set()), sortedIPs(wantRep.Set()))
		}
		if !reflect.DeepEqual(rep, wantRep) {
			t.Errorf("%s: H2P report differs from the fused screening", s.Name)
		}
	}
}

// screenSink keeps benchmarked screenings live.
var screenSink *core.H2PReport

// BenchmarkScreen times one Quick trace's H2P screening from scratch:
// the TAGE-SC-L 8KB outcome stream plus the collector replay and the
// screen. With no cache every call computes both.
func BenchmarkScreen(b *testing.B) {
	cfg := Quick()
	s, _ := workload.ByName("605.mcf_s")
	tr := mustRecord(b, cfg, s, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		screenSink, _ = screenBranches(cfg, s, 0, tr)
	}
}
