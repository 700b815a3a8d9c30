package experiments

import (
	"context"
	"reflect"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/pipeline"
	"branchlab/internal/tage"
	"branchlab/internal/workload"
)

// The replay loops adapt any stream to blocks internally; this sweep
// pins the property the whole PR rests on: forcing every block size —
// including pathological ones — through the full measurement stack
// (TAGE screening + pipeline timing) on a real workload trace changes
// no result bit. Together with the artifact determinism tests (which
// cover the native DefaultBlockLen path end to end) this verifies
// `-run all` output is block-size-independent.
func TestBlockSizeSweepByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	spec, ok := workload.ByName("605.mcf_s")
	if !ok {
		t.Fatal("workload missing")
	}
	tr, err := spec.RecordCtx(context.Background(), 0, 150_000)
	if err != nil {
		t.Fatal(err)
	}
	const sliceLen = 50_000

	wantCol := core.NewCollector(sliceLen)
	wantStats := core.RunBlocks(tr.BlockStream(0), tage.New(tage.Config8KB()), wantCol)
	wantRep := core.PaperCriteria().Scaled(sliceLen).Screen(wantCol)
	wantIPC := pipeline.New(pipeline.Skylake()).RunBlocks(tr.BlockStream(0),
		pipeline.Options{Predictor: tage.New(tage.Config8KB())})

	for _, n := range []int{1, 37, 1_000, 8_192, 200_000} {
		col := core.NewCollector(sliceLen)
		st := core.RunBlocks(tr.BlockStream(n), tage.New(tage.Config8KB()), col)
		if st != wantStats {
			t.Fatalf("block=%d: run stats %+v != %+v", n, st, wantStats)
		}
		rep := core.PaperCriteria().Scaled(sliceLen).Screen(col)
		if !reflect.DeepEqual(rep.Set(), wantRep.Set()) {
			t.Fatalf("block=%d: screened H2P set differs", n)
		}
		if !reflect.DeepEqual(rep.HeavyHitters(), wantRep.HeavyHitters()) {
			t.Fatalf("block=%d: heavy-hitter ranking differs", n)
		}
		if !reflect.DeepEqual(col.Totals(), wantCol.Totals()) {
			t.Fatalf("block=%d: per-branch totals differ", n)
		}
		res := pipeline.New(pipeline.Skylake()).RunBlocks(
			tr.BlockStream(n),
			pipeline.Options{Predictor: tage.New(tage.Config8KB())})
		if res != wantIPC {
			t.Fatalf("block=%d: pipeline result %+v != %+v", n, res, wantIPC)
		}
	}
}
