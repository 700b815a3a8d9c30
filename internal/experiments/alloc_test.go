package experiments

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"branchlab/internal/cnn"
	"branchlab/internal/core"
	"branchlab/internal/engine"
	"branchlab/internal/tage"
	"branchlab/internal/tracecache"
	"branchlab/internal/workload"
)

// TestAllocTelemetryMatchesStandaloneRun: the allocation summary the
// shared 8KB pass keeps reads exactly as the telemetry of a standalone
// TAGE-SC-L 8KB run over the same trace — the run the alloc driver made
// itself before it read the shared stream — through every accessor the
// driver calls, for every allocating IP, on every SPECint input-0 trace.
func TestAllocTelemetryMatchesStandaloneRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := Quick()
	cfg.Cache = tracecache.New(0)
	for _, s := range workload.SPECint2017Like() {
		tr := mustRecord(t, cfg, s, 0)
		pred := tage.New(tage.Config8KB())
		want := pred.EnableAllocTracking()
		core.RunBlocks(tr.BlockStream(0), pred)
		got := allocTelemetry(cfg, s, tr)
		if got == nil {
			t.Fatalf("%s: the shared 8KB pass collected no allocation telemetry", s.Name)
		}
		if got.total != want.TotalAllocs || len(got.perIP) != len(want.AllocsPerIP) {
			t.Fatalf("%s: summary has %d allocations over %d IPs, the standalone run %d over %d",
				s.Name, got.total, len(got.perIP), want.TotalAllocs, len(want.AllocsPerIP))
		}
		for ip := range want.AllocsPerIP {
			if got.Allocs(ip) != want.Allocs(ip) || got.UniqueEntries(ip) != want.UniqueEntries(ip) ||
				got.ShareOfAllocs(ip) != want.ShareOfAllocs(ip) {
				t.Errorf("%s: IP %#x: summary (%d allocs, %d unique, share %v), standalone (%d, %d, %v)",
					s.Name, ip, got.Allocs(ip), got.UniqueEntries(ip), got.ShareOfAllocs(ip),
					want.Allocs(ip), want.UniqueEntries(ip), want.ShareOfAllocs(ip))
			}
		}
	}
}

// TestCNNScoreMatchesOverlayDeployment: stage 2's score of a trained
// helper on its prepared snapshots is exactly the target's statistics
// in the overlay deployment — core.RunBlocks over the unseen input with
// the helper attached and a collector observing.
func TestCNNScoreMatchesOverlayDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := quickCfg()
	cfg.Cache = tracecache.New(0)
	mcfg := cnn.DefaultConfig()
	ctx := context.Background()
	for _, name := range []string{"605.mcf_s", "657.xz_s", "641.leela_s"} {
		t.Run(name, func(t *testing.T) {
			model, err := cnnTrain(ctx, cfg, mcfg, name)
			if err != nil {
				t.Fatal(err)
			}
			dep, err := cnnPrepare(ctx, cfg, mcfg, name)
			if err != nil {
				t.Fatal(err)
			}
			if model == nil || dep == nil {
				t.Fatalf("%s has no helper to deploy (model %v, deployment %v)", name, model != nil, dep != nil)
			}
			spec, _ := workload.ByName(name)
			_, evalInput := cnnInputs(spec)
			target := dep.hist.Target

			overlay := cnn.NewOverlay(mcfg, tage.New(tage.Config8KB()))
			overlay.Attach(target, model)
			col := core.NewCollector(cfg.SliceLen)
			core.RunBlocks(mustRecord(t, cfg, spec, evalInput).BlockStream(0), overlay, col)
			want := col.Totals()[target]
			if want == nil || overlay.HelperPredictions == 0 {
				t.Fatalf("the overlay deployment never consulted the helper at %#x", target)
			}
			if got := dep.score(model); got != *want {
				t.Errorf("stage-2 score %+v, overlay deployment %+v", got, *want)
			}
		})
	}
}

// TestCNNCancelDuringStage1: a context cancelled while the trainings
// and preparations run fails the driver typed, with no artifact, and
// leaves no goroutine behind. The cancel lands once the cache has seen
// a given number of recordings, which happen only in stage 1: after the
// first, while it records; after the fourth and a pause, while
// trainings, which never check ctx, are in flight and the engine must
// wait for them. The error comes from stage 1's 2n-unit map.
func TestCNNCancelDuringStage1(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	for _, tc := range []struct {
		name   string
		misses uint64
		pause  time.Duration
	}{
		{"recording", 1, 0},
		{"training", 4, 20 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg := quickCfg()
			cfg.Workers = parallelWorkers()
			cfg.Cache = tracecache.New(0)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				for cfg.Cache.Stats().Misses < tc.misses && ctx.Err() == nil {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(tc.pause)
				cancel()
			}()
			r, _ := ByID("cnn")
			art, err := r.RunCtx(ctx, cfg)
			if art != nil {
				t.Fatal("cancelled run still produced an artifact")
			}
			var ce *engine.CancelError
			if !engine.IsCancel(err) || !errors.As(err, &ce) {
				t.Fatalf("RunCtx = %v, want a cancellation", err)
			}
			if ce.Total != 2*len(cnnBenchmarks) {
				t.Fatalf("cancelled in a %d-unit map, want stage 1 (%d units)", ce.Total, 2*len(cnnBenchmarks))
			}
			cancel()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<20)
					n := runtime.Stack(buf, true)
					t.Fatalf("goroutine leak: %d before, %d after\n%s", base, runtime.NumGoroutine(), buf[:n])
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}
