package experiments

import (
	"fmt"
	"testing"

	"branchlab/internal/pipeline"
	"branchlab/internal/workload"
)

// TestIPCCellsRespectRetireBound checks an analytic bound on every
// pipeline cell the registry computes: no core retires more than
// RetireWidth instructions a cycle, so Cycles >= Insts/RetireWidth. It
// runs fig1, fig5, fig7 and fig8 on one fresh Quick cache, then
// re-requests every cell those drivers time. Each request must be a
// memo hit — the enumeration below is exactly the drivers' cell set,
// all 210 of them — and each result must satisfy the bound.
func TestIPCCellsRespectRetireBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four drivers end to end")
	}
	cfg := Quick()
	cfg.Cache = cfg.NewCache(0)
	for _, run := range []func(Config) any{
		func(c Config) any { return Fig1(c) }, func(c Config) any { return Fig5(c) },
		func(c Config) any { return Fig7(c) }, func(c Config) any { return Fig8(c) },
	} {
		run(cfg)
	}
	before := cfg.Cache.Stats()

	maxKB := cfg.StorageKB[len(cfg.StorageKB)-1]
	cells := 0
	check := func(s *workload.Spec, scale int, reg regime) {
		t.Helper()
		cells++
		res := ipcCell(cfg, s, cfg.RecordTrace(s, 0), scale, reg)
		width := uint64(pipeline.Skylake().Scaled(scale).RetireWidth)
		if res.Insts != cfg.Budget || res.Cycles*width < res.Insts {
			t.Errorf("%s %dx %s: %d instructions in %d cycles at retire width %d",
				s.Name, scale, reg.sig, res.Insts, res.Cycles, width)
		}
	}
	for _, suite := range [][]*workload.Spec{workload.SPECint2017Like(), workload.LCFLike()} {
		for _, s := range suite {
			rep, _ := screenBranches(cfg, s, 0, cfg.RecordTrace(s, 0))
			h2p := regime{sig: fmt.Sprintf("perfh2p/slice=%d", cfg.SliceLen), kb: 8, perfectIPs: rep.Set()}
			for _, scale := range cfg.PipeScales {
				for _, reg := range []regime{tageRegime(8), tageRegime(64), h2p, perfectRegime} {
					check(s, scale, reg)
				}
			}
		}
	}
	for _, s := range workload.LCFLike() {
		for _, scale := range cfg.PipeScales {
			check(s, scale, tageRegime(maxKB))
		}
		for _, n := range []uint64{1000, 100} {
			m := max(uint64(float64(n)*float64(cfg.Budget)/30e6), 8)
			check(s, 1, regime{sig: fmt.Sprintf("minexec=%d/tage-%dkb", m, maxKB), kb: maxKB, minExecs: m})
		}
	}

	after := cfg.Cache.Stats()
	if after.MemoMisses != before.MemoMisses {
		t.Errorf("enumeration computed %d cells the drivers never timed", after.MemoMisses-before.MemoMisses)
	}
	if cells != 210 || before.MemoMisses != uint64(cells)+15 {
		t.Errorf("enumerated %d cells; drivers computed %d memos (cells + 15 screenings)", cells, before.MemoMisses)
	}
}
