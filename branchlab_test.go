package branchlab_test

import (
	"bytes"
	"context"
	"testing"

	"branchlab"
)

// TestFacadeEndToEnd exercises the public API the way the quickstart
// example does: workload -> predictor -> screening -> IPC.
func TestFacadeEndToEnd(t *testing.T) {
	spec, ok := branchlab.Workload("605.mcf_s")
	if !ok {
		t.Fatal("workload missing")
	}
	const budget = 300_000
	tr := branchlab.RecordTrace(spec, 0, budget)
	if tr.Len() != budget {
		t.Fatalf("trace length %d", tr.Len())
	}

	pred := branchlab.NewTAGESCL(8)
	col := branchlab.NewCollector(budget / 2)
	stats := branchlab.Run(tr.Stream(), pred, col)
	if stats.Insts != budget {
		t.Errorf("Insts = %d", stats.Insts)
	}
	if acc := stats.Accuracy(); acc < 0.8 || acc > 0.99 {
		t.Errorf("mcf-like accuracy = %v, outside plausible band", acc)
	}

	rep := branchlab.ScreenH2Ps(col, budget/2)
	if len(rep.Set()) == 0 {
		t.Error("no H2Ps screened on mcf-like workload")
	}

	res := branchlab.SimulateIPC(tr.Stream(), branchlab.SkylakeConfig(),
		branchlab.PipelineOptions{Predictor: branchlab.NewTAGESCL(8)})
	perfect := branchlab.SimulateIPC(tr.Stream(), branchlab.SkylakeConfig(),
		branchlab.PipelineOptions{PerfectBP: true})
	if !(res.IPC > 0 && res.IPC < perfect.IPC) {
		t.Errorf("IPC ordering: predicted %v vs perfect %v", res.IPC, perfect.IPC)
	}
}

func TestFacadePredictorRegistry(t *testing.T) {
	if len(branchlab.PredictorNames()) < 8 {
		t.Error("predictor registry too small")
	}
	p, err := branchlab.NewPredictor("gshare")
	if err != nil || p == nil {
		t.Fatalf("NewPredictor(gshare): %v", err)
	}
	if _, err := branchlab.NewPredictor("bogus"); err == nil {
		t.Error("bogus predictor accepted")
	}
}

func TestFacadeSuites(t *testing.T) {
	if len(branchlab.SPECint2017Like()) != 9 || len(branchlab.LCFLike()) != 6 {
		t.Error("suite sizes wrong")
	}
	if len(branchlab.Experiments()) != 16 {
		t.Errorf("experiment registry has %d entries, want 16", len(branchlab.Experiments()))
	}
}

func TestFacadePhases(t *testing.T) {
	spec, _ := branchlab.Workload("620.omnetpp_s")
	s := spec.Stream(0, 400_000)
	defer branchlab.CloseStream(s)
	k := branchlab.CountPhases(s, 50_000, 16)
	if k < 2 {
		t.Errorf("phases = %d, want >= 2 for a phased workload", k)
	}
}

func TestFacadeHelperSaveLoad(t *testing.T) {
	spec, _ := branchlab.Workload("605.mcf_s")
	cfg := branchlab.DefaultHelperConfig()
	cfg.Epochs = 2
	tr := branchlab.RecordTrace(spec, 0, 200_000)

	col := branchlab.NewCollector(100_000)
	branchlab.Run(tr.Stream(), branchlab.NewTAGESCL(8), col)
	hh := branchlab.ScreenH2Ps(col, 100_000).HeavyHitters()
	if len(hh) == 0 {
		t.Skip("no H2P at this budget")
	}
	m := branchlab.TrainHelper(cfg, hh[0].IP, tr)
	var buf bytes.Buffer
	if err := branchlab.SaveHelper(&buf, m); err != nil {
		t.Fatalf("SaveHelper: %v", err)
	}
	loaded, err := branchlab.LoadHelper(&buf)
	if err != nil {
		t.Fatalf("LoadHelper: %v", err)
	}
	if !loaded.Quantized() {
		t.Error("loaded helper not quantized")
	}
}

// TestIPCDriverPassCounts runs the four IPC drivers (fig1, fig5, fig7,
// fig8) on one fresh Quick cache and pins how much work they share.
// Memo misses count cells: 210 distinct pipeline cells plus 15 H2P
// screenings, the count perfbench's traced ipc-cold replay requires.
// Pass misses count per-trace pass tables: one cache/BTB annotation per
// trace (15) and one outcome stream per (trace, predictor) — TAGE-SC-L
// 8KB and 64KB on the 9 SPECint-like traces, plus 1024KB on the 6 LCF
// traces (36).
func TestIPCDriverPassCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four drivers end to end")
	}
	cfg := branchlab.QuickExperimentConfig()
	cfg.Cache = cfg.NewCache(0)
	ids := map[string]bool{"fig1": true, "fig5": true, "fig7": true, "fig8": true}
	for _, r := range branchlab.Experiments() {
		if !ids[r.ID] {
			continue
		}
		if _, err := branchlab.RunExperiment(context.Background(), r, cfg); err != nil {
			t.Fatalf("%s: %v", r.ID, err)
		}
		delete(ids, r.ID)
	}
	if len(ids) != 0 {
		t.Fatalf("drivers missing from the registry: %v", ids)
	}
	st := cfg.Cache.Stats()
	if st.MemoMisses != 210+15 {
		t.Errorf("memo misses = %d, want 225 (210 pipeline cells + 15 screenings)", st.MemoMisses)
	}
	if st.PassMisses != 15+36 {
		t.Errorf("pass misses = %d, want 51 (15 annotations + 36 predictor streams)", st.PassMisses)
	}
}
