package pipeline

import (
	"context"
	"fmt"
	"math"
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
			core.RunBlocks(tr.BlockStream(0), tage.New(tage.Config8KB()), col)
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
					if got := New(cfg).RunBlocks(tr.BlockStream(n), withPred()); got != want {
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
// runs, random look-backs inside the window, jumps past the window, and
// a completely full ring — and requires the same cycle from every
// reservation.
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
				// Jumps ahead, some past a whole window.
				check(slow.lastSeen + 1 + uint64(rng.Intn(2*widthWindow)))
			}
			// Fill the whole ring, then probe it from across the window.
			if limit <= 3 {
				start := slow.lastSeen + 1
				for c := start; c < start+widthWindow; c++ {
					for i := 0; i < limit; i++ {
						check(c)
					}
				}
				for _, d := range []uint64{0, 1, widthWindow / 2, widthWindow - 1} {
					check(back(d))
				}
			}
		})
	}
}

// TestInOrderLimiterMatchesLinearProbe drives the in-order counter and
// the linear probe with the two request shapes the schedule feeds it —
// nondecreasing requests trailing the last grant by less than a window
// (fetch) and requests at or past the last grant (retire) — over
// widths 1 to 384, with saturated runs, short steps and jumps past the
// window, and requires the same cycle from every reservation.
func TestInOrderLimiterMatchesLinearProbe(t *testing.T) {
	rng := xrand.New(14)
	limits := []int{1, 2, 3, 6, 7, 12, 96, 192, 383, 384}
	for i := 0; i < 10; i++ {
		limits = append(limits, 1+rng.Intn(384))
	}
	for _, limit := range limits {
		for _, shape := range []string{"fetch", "retire"} {
			fast, slow := inOrderLimiter{limit: limit}, newLinearLimiter(limit)
			var want, grant uint64
			for i := 0; i < 20000; i++ {
				switch r := rng.Intn(100); {
				case r < 60: // saturate: repeat the request
				case r < 95:
					want += uint64(rng.Intn(4))
				default:
					want += uint64(rng.Intn(2 * widthWindow))
				}
				switch shape {
				case "fetch":
					// The fetch floor: at most a window's worth behind.
					if lag := uint64(rng.Intn(widthWindow)); grant > lag && want < grant-lag {
						want = grant - lag
					}
				case "retire":
					want = max(want, grant)
				}
				fast = fast.next(want)
				got, ref := fast.cycle, slow.reserve(want)
				if got != ref {
					t.Fatalf("limit %d %s #%d: reserve(%d) = %d, linear probe %d", limit, shape, i, want, got, ref)
				}
				grant = got
			}
		}
	}
}

// TestStoreWindowMatchesScan checks the forwarding chain against a scan
// of the last SQSize stores, with blocks drawn from a few colliding
// buckets and the window wrapping many times.
func TestStoreWindowMatchesScan(t *testing.T) {
	for _, size := range []int{1, 2, 56, 57, 896} {
		rng := xrand.New(uint64(size))
		w := newStoreWindow(size)
		blocks := collidingBlocks(w, 4)
		blocks = append(blocks, 0, 1, 2)
		var addr, done []uint64 // every store, oldest first
		for i := 0; i < 20*size+2000; i++ {
			b := blocks[rng.Intn(len(blocks))]
			if rng.Intn(3) == 0 {
				d := uint64(rng.Intn(1000))
				w.push(b, d)
				addr, done = append(addr, b), append(done, d)
				continue
			}
			var want uint64
			for k := max(0, len(addr)-size); k < len(addr); k++ {
				if addr[k] == b {
					want = max(want, done[k])
				}
			}
			if got := w.forward(b); got != want {
				t.Fatalf("SQ %d, after %d stores: forward(%d) = %d, scan %d", size, len(addr), b, got, want)
			}
		}
	}
}

// collidingBlocks returns n distinct nonzero blocks sharing one bucket
// of w's head table.
func collidingBlocks(w storeWindow, n int) []uint64 {
	var out []uint64
	want := w.bucket(1)
	for b := uint64(1); len(out) < n; b++ {
		if w.bucket(b) == want {
			out = append(out, b)
		}
	}
	return out
}

// storeHeavyTrace is n instructions of stores and loads to a few blocks
// that collide in the forwarding table of every scale up to 32x, with
// stores fed by long- and short-latency producers so their completions
// arrive out of program order.
func storeHeavyTrace(n int) *trace.Buffer {
	rng := xrand.New(32)
	blocks := collidingBlocks(newStoreWindow(Skylake().Scaled(32).SQSize), 5)
	blocks = append(blocks, 0x4000, 0x4001)
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		inst := aluInst(0x1000 + uint64(i%256)*4)
		switch r := rng.Intn(10); {
		case r < 5:
			inst.Kind = trace.KindStore
			inst.MemAddr = blocks[rng.Intn(len(blocks))]<<3 | uint64(rng.Intn(8))
			inst.SrcRegs[0] = uint8(1 + rng.Intn(4))
		case r < 8:
			inst.Kind = trace.KindLoad
			inst.MemAddr = blocks[rng.Intn(len(blocks))] << 3
			inst.DstReg = uint8(5 + rng.Intn(4))
			inst.SrcRegs[0] = inst.DstReg
		case r < 9:
			inst.Kind = trace.KindDiv
			inst.DstReg = uint8(1 + rng.Intn(4))
			inst.SrcRegs[0] = uint8(5 + rng.Intn(4))
		default:
			inst.DstReg = uint8(1 + rng.Intn(4))
		}
		b.Append(inst)
	}
	return b
}

// TestStoreForwardingChainMatchesOracle runs a store-heavy trace whose
// blocks collide in the forwarding table through Schedule and the fused
// oracle at 1x, 16x and 32x; the store queue wraps many times at each.
func TestStoreForwardingChainMatchesOracle(t *testing.T) {
	tr := storeHeavyTrace(40000)
	ann := Annotate(tr.BlockStream(0), Skylake())
	for _, scale := range []int{1, 16, 32} {
		cfg := Skylake().Scaled(scale)
		want := referenceRun(cfg, tr.BlockStream(0), Options{PerfectBP: true})
		if got := Schedule(tr.BlockStream(0), cfg, ann, nil, Options{PerfectBP: true}); got != want {
			t.Fatalf("%dx: Schedule %+v, oracle %+v", scale, got, want)
		}
	}
}

// TestMaxScaleKeepsFetchInWindow checks the bound MaxScale rests on:
// at the largest scale a fetch request still trails the last fetch
// grant by less than the width window.
func TestMaxScaleKeepsFetchInWindow(t *testing.T) {
	cfg := Skylake().Scaled(MaxScale)
	if lag := uint64(cfg.ROBSize) + cfg.FrontDepth + widthWindow/2; lag >= widthWindow {
		t.Errorf("%s: fetch lag bound %d >= width window %d", cfg.Name, lag, widthWindow)
	}
}

// TestUnsupportedConfigPanics checks that New and Schedule refuse a
// configuration past the bound instead of returning wrong timings:
// 74x, whose ROB lag reaches the width window, and a width that
// overflows the issue ring's 16-bit count.
func TestUnsupportedConfigPanics(t *testing.T) {
	if err := checkConfig(Skylake().Scaled(MaxScale)); err != nil {
		t.Fatalf("MaxScale rejected: %v", err)
	}
	wide := Skylake()
	wide.Name, wide.IssueWidth = "skylake-wide-issue", math.MaxUint16+3
	tr := independentALUTrace(1000)
	ann := Annotate(tr.BlockStream(0), Skylake())
	for _, cfg := range []Config{Skylake().Scaled(74), wide} {
		mustPanic := func(name string, run func()) {
			t.Helper()
			defer func() {
				if recover() == nil {
					t.Errorf("%s(%s) did not panic", name, cfg.Name)
				}
			}()
			run()
		}
		mustPanic("New", func() { New(cfg) })
		mustPanic("Schedule", func() { Schedule(tr.BlockStream(0), cfg, ann, nil, Options{}) })
	}
}
