package pipeline

import (
	"context"
	"fmt"
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
	"branchlab/internal/xrand"
)

// Quick-configuration geometry (experiments.Quick): trace budget,
// screening slice and pipeline scales.
const (
	quickBudget = 400_000
	quickSlice  = 200_000
)

var quickScales = []int{1, 4, 16}

// TestPassesMatchFusedOracle is the equivalence suite: on every zoo
// workload at the Quick budget and scale, under each kind of prediction
// regime the drivers use (perfect, TAGE-SC-L 8KB and 64KB, perfect
// H2Ps, a min-exec oracle), Schedule over one shared Annotation and
// Outcomes and RunBlocks must reproduce the fused loop's Result field
// for field. RunBlocks runs at block sizes 1, 7 and the default in
// rotation, so every workload, scale and regime meets every block
// size. -short keeps three workloads.
func TestPassesMatchFusedOracle(t *testing.T) {
	specs := append(workload.SPECint2017Like(), workload.LCFLike()...)
	if testing.Short() {
		specs = []*workload.Spec{specs[0], specs[5], specs[len(specs)-1]}
	}
	for _, s := range specs {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			tr, err := s.RecordCtx(context.Background(), 0, quickBudget)
			if err != nil {
				t.Fatal(err)
			}
			col := core.NewCollector(quickSlice)
			core.Run(tr.Stream(), tage.New(tage.Config8KB()), col)
			h2ps := core.PaperCriteria().Scaled(quickSlice).Screen(col).Set()

			ann := Annotate(tr.BlockStream(0), Skylake())
			outs := map[int]*Outcomes{}
			for _, kb := range []int{8, 64} {
				outs[kb] = Predict(tr.BlockStream(0), tage.New(tage.NewConfig(kb)))
			}
			regimes := []struct {
				name string
				kb   int // 0: perfect prediction
				opt  Options
			}{
				{"perfect", 0, Options{PerfectBP: true}},
				{"tage-8kb", 8, Options{}},
				{"tage-64kb", 64, Options{}},
				{"perfect-h2p", 8, Options{PerfectIPs: h2ps}},
				{"min-exec-100", 8, Options{MinExecsPerfect: 100}},
			}
			blockLens := []int{1, 7, trace.DefaultBlockLen}
			for si, scale := range quickScales {
				cfg := Skylake().Scaled(scale)
				for ri, reg := range regimes {
					withPred := func() Options {
						o := reg.opt
						if reg.kb != 0 {
							o.Predictor = tage.New(tage.NewConfig(reg.kb))
						}
						return o
					}
					want := referenceRun(cfg, tr.BlockStream(0), withPred())
					got := Schedule(tr.BlockStream(0), cfg, ann, outs[reg.kb], reg.opt)
					if got != want {
						t.Fatalf("%dx %s: Schedule %+v, oracle %+v", scale, reg.name, got, want)
					}
					n := blockLens[(si+ri)%len(blockLens)]
					if got := New(cfg).RunBlocks(trace.Blocks(tr.Stream(), n), withPred()); got != want {
						t.Fatalf("%dx %s block %d: RunBlocks %+v, oracle %+v", scale, reg.name, n, got, want)
					}
				}
			}
		})
	}
}

// TestPassesMatchOracleWithoutBTB covers the annotation with target
// prediction off and a predictor that trains through plain Train.
func TestPassesMatchOracleWithoutBTB(t *testing.T) {
	tr := branchyTrace(60000, 11, 0.6)
	cfg := Skylake()
	cfg.BTBMissPenalty = 0
	ann := Annotate(tr.BlockStream(0), cfg)
	out := Predict(tr.BlockStream(0), bp.NewGShare(12, 10))
	for _, scale := range []int{1, 2} {
		c := cfg.Scaled(scale)
		want := referenceRun(c, tr.BlockStream(0), Options{Predictor: bp.NewGShare(12, 10)})
		if got := Schedule(tr.BlockStream(0), c, ann, out, Options{}); got != want {
			t.Fatalf("%dx: Schedule %+v, oracle %+v", scale, got, want)
		}
	}
}

func TestScheduleRejectsMismatchedAnnotation(t *testing.T) {
	tr := independentALUTrace(100)
	ann := Annotate(tr.BlockStream(0), Skylake())
	noBTB := Skylake()
	noBTB.BTBMissPenalty = 0
	for name, f := range map[string]func(){
		"config":    func() { Schedule(tr.BlockStream(0), noBTB, ann, nil, Options{}) },
		"length":    func() { Schedule(independentALUTrace(101).BlockStream(0), Skylake(), ann, nil, Options{}) },
		"outcomes":  func() { Schedule(tr.BlockStream(0), Skylake(), ann, &Outcomes{n: 99}, Options{}) },
		"too short": func() { Schedule(independentALUTrace(99).BlockStream(0), Skylake(), ann, nil, Options{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mismatch did not panic", name)
				}
			}()
			f()
		}()
	}
}

// TestLinearProbeOracle drives the skip-pointer width limiter and the
// linear probe it replaced with the same request sequences — saturated
// runs, random look-backs, requests a whole window or more behind (the
// aliased ring), jumps past the window, and a completely full ring —
// and requires the same cycle from every reservation.
func TestLinearProbeOracle(t *testing.T) {
	for _, limit := range []int{1, 2, 3, 6, 96} {
		t.Run(fmt.Sprintf("limit=%d", limit), func(t *testing.T) {
			rng := xrand.New(uint64(limit))
			fast, slow := newWidthLimiter(limit), newLinearLimiter(limit)
			check := func(want uint64) uint64 {
				t.Helper()
				got, ref := fast.reserve(want), slow.reserve(want)
				if got != ref {
					t.Fatalf("reserve(%d) = %d, linear probe %d (lastSeen %d)", want, got, ref, slow.lastSeen)
				}
				return got
			}
			back := func(d uint64) uint64 {
				if d > slow.lastSeen {
					return 0
				}
				return slow.lastSeen - d
			}
			for round := 0; round < 40; round++ {
				// Saturate: many requests at one cycle.
				base := check(back(uint64(rng.Intn(64))))
				for i := 0; i < 3*limit+rng.Intn(200); i++ {
					check(base)
				}
				// Random look-backs inside the window.
				for i := 0; i < 300; i++ {
					check(back(uint64(rng.Intn(widthWindow))))
				}
				// Aliased: a whole window or more behind.
				for i := 0; i < 50; i++ {
					check(back(widthWindow + uint64(rng.Intn(3*widthWindow))))
				}
				// Jumps ahead, some past a whole window.
				check(slow.lastSeen + 1 + uint64(rng.Intn(2*widthWindow)))
			}
			// Saturate the newest cycles after a jump that cleared the
			// ring, then probe a window behind them: the aliased probe
			// runs off the full newest cycles and wraps onto the oldest.
			for round := 0; round < 20; round++ {
				top := check(slow.lastSeen + widthWindow + uint64(rng.Intn(widthWindow)))
				for c := top; c < top+64; c++ {
					for i := 0; i < limit; i++ {
						check(c)
					}
				}
				check(top + uint64(rng.Intn(64)) - widthWindow*uint64(1+rng.Intn(3)))
			}
			// Fill the whole ring, then probe it from every distance.
			if limit <= 3 {
				start := slow.lastSeen + 1
				for c := start; c < start+widthWindow; c++ {
					for i := 0; i < limit; i++ {
						check(c)
					}
				}
				for _, d := range []uint64{0, 1, widthWindow - 1, widthWindow, widthWindow + 1, 5 * widthWindow} {
					check(back(d))
				}
			}
		})
	}
}
