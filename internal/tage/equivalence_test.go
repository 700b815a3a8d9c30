package tage_test

import (
	"context"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
	"branchlab/internal/xrand"
)

// The packed engine's contract is byte-identical behaviour with the
// scalar Reference oracle: same prediction stream, same mispredict
// counts, same allocation telemetry, over real workload traces and over
// every internal mechanism the rearchitecture touched (packed words,
// bitmap provider selection, cached SC indices, lazy usefulness aging,
// the batch block path). These property tests enforce that contract; the
// CI determinism matrix enforces the same thing end to end at the
// artifact level.

// engine is the scalar surface both implementations share.
type engine interface {
	Predict(ip uint64) bool
	TrainWithTarget(ip, target uint64, taken, pred bool)
	ObserveBranch(ip, target uint64, kind trace.Kind, taken bool)
}

// lockstep replays buf through both engines with the measurement loop's
// per-instruction semantics, failing on the first diverging prediction,
// and returns the (identical) mispredict count.
func lockstep(t *testing.T, name string, buf *trace.Buffer, a, b engine) uint64 {
	t.Helper()
	var mispreds uint64
	for i := 0; i < buf.Len(); i++ {
		inst := buf.At(i)
		if inst.Kind == trace.KindCondBr {
			pa, pb := a.Predict(inst.IP), b.Predict(inst.IP)
			if pa != pb {
				t.Fatalf("%s: engines diverged at instruction %d (ip %#x): packed %v, reference %v",
					name, i, inst.IP, pa, pb)
			}
			if pa != inst.Taken {
				mispreds++
			}
			a.TrainWithTarget(inst.IP, inst.Target, inst.Taken, pa)
			b.TrainWithTarget(inst.IP, inst.Target, inst.Taken, pb)
		} else if inst.Kind.IsBranch() {
			a.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			b.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
		}
	}
	return mispreds
}

// record is Spec.RecordCtx under the background context, failing the
// test on error.
func record(t testing.TB, spec *workload.Spec, budget uint64) *trace.Buffer {
	t.Helper()
	buf, err := spec.RecordCtx(context.Background(), 0, budget)
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	return buf
}

func allSpecs() []*workload.Spec {
	return append(workload.SPECint2017Like(), workload.LCFLike()...)
}

func TestPackedMatchesReferenceAllWorkloads(t *testing.T) {
	// Every workload of both suites, input 0: the packed engine and the
	// scalar reference must emit the same prediction for every dynamic
	// branch. 150k instructions reaches deep enough to exercise
	// allocation pressure, the loop predictor and the corrector on every
	// trace-visible signature in the suite.
	const budget = 150_000
	for _, spec := range allSpecs() {
		buf := record(t, spec, budget)
		packed := tage.New(tage.Config8KB())
		ref := tage.NewReference(tage.Config8KB())
		miss := lockstep(t, spec.Name, buf, packed, ref)
		if miss == 0 {
			t.Errorf("%s: zero mispredictions over %d insts — stream not exercising the predictor", spec.Name, budget)
		}
	}
}

func TestPackedMatchesReferenceTelemetry(t *testing.T) {
	// With collectors attached, the packed engine's side-table owner
	// telemetry must reproduce the reference's inline owners exactly over
	// a real trace: same event totals, same per-IP counts, same victim
	// attributions.
	spec := allSpecs()[0]
	buf := record(t, spec, 150_000)
	packed := tage.New(tage.Config8KB())
	ref := tage.NewReference(tage.Config8KB())
	sa, sb := packed.EnableAllocTracking(), ref.EnableAllocTracking()
	lockstep(t, spec.Name, buf, packed, ref)
	if sa.TotalAllocs == 0 {
		t.Fatal("trace generated no allocations")
	}
	if sa.TotalAllocs != sb.TotalAllocs {
		t.Errorf("TotalAllocs: packed %d, reference %d", sa.TotalAllocs, sb.TotalAllocs)
	}
	if len(sa.AllocsPerIP) != len(sb.AllocsPerIP) {
		t.Errorf("AllocsPerIP size: packed %d, reference %d", len(sa.AllocsPerIP), len(sb.AllocsPerIP))
	}
	for ip, n := range sa.AllocsPerIP {
		if sb.AllocsPerIP[ip] != n || sa.UniqueEntries(ip) != sb.UniqueEntries(ip) {
			t.Errorf("ip %#x: allocs packed %d/%d unique, reference %d/%d unique",
				ip, n, sa.UniqueEntries(ip), sb.AllocsPerIP[ip], sb.UniqueEntries(ip))
		}
	}
	for ip, n := range sa.EvictionsPerIP {
		if sb.EvictionsPerIP[ip] != n {
			t.Errorf("evictions of %#x: packed %d, reference %d", ip, n, sb.EvictionsPerIP[ip])
		}
	}
	if len(sa.EvictionsPerIP) != len(sb.EvictionsPerIP) {
		t.Errorf("EvictionsPerIP size: packed %d, reference %d", len(sa.EvictionsPerIP), len(sb.EvictionsPerIP))
	}
}

func TestLazyAgingMatchesEagerSweep(t *testing.T) {
	// The lazy epoch aging must be exactly equivalent to the reference's
	// eager full-table u >>= 1 sweep. The default UResetPeriod (2^18) is
	// never reached in a short test, so shrink it until epochs tick every
	// few updates — UResetPeriod=1 drives an epoch per train and crosses
	// the normalize() sweep hundreds of times, stressing the stamp
	// arithmetic far beyond any real configuration.
	for _, period := range []uint64{1, 64, 4096} {
		cfg := tage.Config8KB()
		cfg.UResetPeriod = period
		packed := tage.New(cfg)
		ref := tage.NewReference(cfg)
		sa, sb := packed.EnableAllocTracking(), ref.EnableAllocTracking()
		rng := xrand.New(31)
		for i := 0; i < 120_000; i++ {
			ip := 0x4000 + uint64(rng.Intn(200))*8
			var taken bool
			switch ip % 3 {
			case 0:
				taken = rng.Bool(0.5) // hard: churns allocations and u bits
			case 1:
				taken = i%2 == 0
			default:
				taken = rng.Bool(0.9)
			}
			pa, pb := packed.Predict(ip), ref.Predict(ip)
			if pa != pb {
				t.Fatalf("UResetPeriod=%d: diverged at step %d (ip %#x)", period, i, ip)
			}
			packed.TrainWithTarget(ip, ip+16, taken, pa)
			ref.TrainWithTarget(ip, ip+16, taken, pb)
		}
		if sa.TotalAllocs != sb.TotalAllocs {
			t.Errorf("UResetPeriod=%d: TotalAllocs packed %d, reference %d", period, sa.TotalAllocs, sb.TotalAllocs)
		}
	}
}

// scalarOnly hides the packed engine's RunBlock so core.RunBlocks falls
// back to the per-instruction loop, exposing the batch/scalar contrast.
type scalarOnly struct{ p *tage.Predictor }

func (s scalarOnly) Predict(ip uint64) bool            { return s.p.Predict(ip) }
func (s scalarOnly) Train(ip uint64, taken, pred bool) { s.p.Train(ip, taken, pred) }
func (s scalarOnly) Name() string                      { return s.p.Name() }
func (s scalarOnly) TrainWithTarget(ip, target uint64, taken, pred bool) {
	s.p.TrainWithTarget(ip, target, taken, pred)
}
func (s scalarOnly) ObserveBranch(ip, target uint64, kind trace.Kind, taken bool) {
	s.p.ObserveBranch(ip, target, kind, taken)
}

func TestBatchPathMatchesScalarPath(t *testing.T) {
	// core.RunBlocks must produce identical RunStats whether the packed
	// engine consumes whole blocks (bp.BlockRunner), the same engine is
	// driven per instruction (wrapper hiding RunBlock), or the reference
	// runs the scalar loop — at more than one block length, so nothing
	// depends on where block boundaries fall.
	const budget = 150_000
	for _, spec := range allSpecs()[:3] {
		buf := record(t, spec, budget)
		for _, blockLen := range []int{512, trace.DefaultBlockLen} {
			batch := core.RunBlocks(buf.BlockStream(blockLen), tage.New(tage.Config8KB()))
			scalar := core.RunBlocks(buf.BlockStream(blockLen), scalarOnly{tage.New(tage.Config8KB())})
			ref := core.RunBlocks(buf.BlockStream(blockLen), tage.NewReference(tage.Config8KB()))
			if batch != scalar {
				t.Errorf("%s blockLen=%d: batch %+v != scalar %+v", spec.Name, blockLen, batch, scalar)
			}
			if batch != ref {
				t.Errorf("%s blockLen=%d: batch %+v != reference %+v", spec.Name, blockLen, batch, ref)
			}
		}
	}
}
