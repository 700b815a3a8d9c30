package core

import (
	"testing"
	"testing/quick"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// fixedPredictor always predicts a constant direction.
type fixedPredictor struct{ dir bool }

func (f fixedPredictor) Predict(uint64) bool      { return f.dir }
func (f fixedPredictor) Train(uint64, bool, bool) {}
func (f fixedPredictor) Name() string             { return "fixed" }

// buildTrace makes a trace with interleaved branches: ip 0xA00 always
// taken (predicted correctly by fixed-taken), ip 0xB00 never taken
// (always mispredicted by fixed-taken), with ALU filler between.
func buildTrace(branchPairs int, fillerPer int) *trace.Buffer {
	b := trace.NewBuffer(0)
	for i := 0; i < branchPairs; i++ {
		for f := 0; f < fillerPer; f++ {
			b.Append(trace.Inst{IP: 0x100, Kind: trace.KindALU,
				DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
		}
		b.Append(trace.Inst{IP: 0xA00, Kind: trace.KindCondBr, Taken: true, Target: 0xC00,
			DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
		b.Append(trace.Inst{IP: 0xB00, Kind: trace.KindCondBr, Taken: false, Target: 0xC00,
			DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
	}
	return b
}

func TestRunCountsAndAccuracy(t *testing.T) {
	tr := buildTrace(1000, 3)
	st := RunBlocks(tr.BlockStream(0), fixedPredictor{dir: true})
	if st.Insts != uint64(tr.Len()) {
		t.Errorf("Insts = %d, want %d", st.Insts, tr.Len())
	}
	if st.CondExecs != 2000 {
		t.Errorf("CondExecs = %d", st.CondExecs)
	}
	if st.Mispreds != 1000 {
		t.Errorf("Mispreds = %d", st.Mispreds)
	}
	if st.Accuracy() != 0.5 {
		t.Errorf("Accuracy = %v", st.Accuracy())
	}
	if st.MPKI() <= 0 {
		t.Error("MPKI should be positive")
	}
}

func TestCollectorSlices(t *testing.T) {
	tr := buildTrace(1000, 3) // 5 insts per pair = 5000 insts
	col := NewCollector(1000)
	RunBlocks(tr.BlockStream(0), fixedPredictor{dir: true}, col)
	if len(col.Slices) != 5 {
		t.Fatalf("slices = %d, want 5", len(col.Slices))
	}
	for _, s := range col.Slices {
		if s.Insts != 1000 {
			t.Errorf("slice %d has %d insts", s.Index, s.Insts)
		}
		if len(s.PerBranch) != 2 {
			t.Errorf("slice %d has %d branches", s.Index, len(s.PerBranch))
		}
		if b := s.PerBranch[0xB00]; b == nil || b.Accuracy() != 0 {
			t.Errorf("slice %d: 0xB00 stats wrong: %+v", s.Index, b)
		}
		if b := s.PerBranch[0xA00]; b == nil || b.Accuracy() != 1 {
			t.Errorf("slice %d: 0xA00 stats wrong: %+v", s.Index, b)
		}
	}
	if col.Accuracy() != 0.5 {
		t.Errorf("collector accuracy = %v", col.Accuracy())
	}
	if acc := col.AccuracyExcluding(map[uint64]bool{0xB00: true}); acc != 1 {
		t.Errorf("accuracy excluding 0xB00 = %v", acc)
	}
	if col.StaticBranches() != 2 {
		t.Errorf("StaticBranches = %d", col.StaticBranches())
	}
	if col.MedianStaticPerSlice() != 2 {
		t.Errorf("MedianStaticPerSlice = %d", col.MedianStaticPerSlice())
	}
}

func TestCollectorPanicsOnZeroSlice(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewCollector(0) did not panic")
		}
	}()
	NewCollector(0)
}

func TestCriteriaScaling(t *testing.T) {
	c := PaperCriteria()
	if c.MinExecs != 15000 || c.MinMispreds != 1000 || c.SliceLen != 30_000_000 {
		t.Fatalf("paper criteria wrong: %+v", c)
	}
	s := c.Scaled(3_000_000) // 10x smaller slices
	if s.MinExecs != 1500 || s.MinMispreds != 100 {
		t.Errorf("scaled criteria wrong: %+v", s)
	}
	if s.MaxAccuracy != c.MaxAccuracy {
		t.Error("accuracy threshold must not scale")
	}
	tiny := c.Scaled(1000)
	if tiny.MinExecs < 16 || tiny.MinMispreds < 4 {
		t.Errorf("tiny scaling below floors: %+v", tiny)
	}
	same := c.Scaled(30_000_000)
	if same != c {
		t.Error("scaling to the same length should be identity")
	}
}

func TestScreeningFindsOnlyQualifyingBranches(t *testing.T) {
	tr := buildTrace(1000, 3)
	col := NewCollector(1000)
	RunBlocks(tr.BlockStream(0), fixedPredictor{dir: true}, col)
	crit := Criteria{MaxAccuracy: 0.99, MinExecs: 100, MinMispreds: 50, SliceLen: 1000}
	rep := crit.Screen(col)
	set := rep.Set()
	if !set[0xB00] {
		t.Error("0xB00 (0% accuracy, 200 execs/slice) should be an H2P")
	}
	if set[0xA00] {
		t.Error("0xA00 (100% accuracy) must not be an H2P")
	}
	if rep.Slices[0xB00] != 5 {
		t.Errorf("0xB00 should qualify in all 5 slices, got %d", rep.Slices[0xB00])
	}
	if got := rep.AvgPerSlice(); got != 1 {
		t.Errorf("AvgPerSlice = %v", got)
	}
	if got := rep.MispredShare(); got != 1 {
		t.Errorf("MispredShare = %v (all mispredictions come from 0xB00)", got)
	}
	if got := rep.AvgExecsPerH2PPerSlice(); got != 200 {
		t.Errorf("AvgExecsPerH2PPerSlice = %v, want 200", got)
	}
}

func TestScreeningExecThreshold(t *testing.T) {
	// A branch below the execution threshold must not screen, no matter
	// how inaccurate: that is the rare-branch category by definition.
	tr := buildTrace(1000, 3)
	col := NewCollector(1000)
	RunBlocks(tr.BlockStream(0), fixedPredictor{dir: true}, col)
	crit := Criteria{MaxAccuracy: 0.99, MinExecs: 1000, MinMispreds: 50, SliceLen: 1000}
	if rep := crit.Screen(col); len(rep.Set()) != 0 {
		t.Errorf("nothing should qualify with MinExecs=1000/slice, got %v", rep.Set())
	}
}

func TestHeavyHitters(t *testing.T) {
	// Three hard branches with different execution weights.
	b := trace.NewBuffer(0)
	rng := xrand.New(1)
	add := func(ip uint64, n int) {
		for i := 0; i < n; i++ {
			b.Append(trace.Inst{IP: ip, Kind: trace.KindCondBr, Taken: rng.Bool(0.5),
				Target: ip + 64, DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
		}
	}
	add(0x1, 6000)
	add(0x2, 3000)
	add(0x3, 1000)
	col := NewCollector(100000)
	RunBlocks(b.BlockStream(0), fixedPredictor{dir: true}, col)
	crit := Criteria{MaxAccuracy: 0.99, MinExecs: 500, MinMispreds: 10, SliceLen: 100000}
	hh := crit.Screen(col).HeavyHitters()
	if len(hh) != 3 {
		t.Fatalf("heavy hitters = %d, want 3", len(hh))
	}
	if hh[0].IP != 0x1 || hh[1].IP != 0x2 || hh[2].IP != 0x3 {
		t.Errorf("ranking wrong: %+v", hh)
	}
	if hh[2].CumMispredFrac != 1.0 {
		t.Errorf("final cumulative fraction = %v, want 1", hh[2].CumMispredFrac)
	}
	if !(hh[0].CumMispredFrac > 0.4 && hh[0].CumMispredFrac < 0.8) {
		t.Errorf("top hitter covers %v of mispredictions, want ~0.6", hh[0].CumMispredFrac)
	}
}

func TestCrossInputAggregation(t *testing.T) {
	mkReport := func(ips ...uint64) *H2PReport {
		r := &H2PReport{Slices: make(map[uint64]int)}
		for _, ip := range ips {
			r.Slices[ip] = 1
		}
		return r
	}
	agg := Aggregate([]*H2PReport{
		mkReport(1, 2, 3),
		mkReport(2, 3),
		mkReport(2, 3, 4),
		mkReport(2),
	})
	if agg.Total() != 4 {
		t.Errorf("Total = %d", agg.Total())
	}
	if agg.AppearingIn(3) != 2 { // 2 (4x) and 3 (3x)
		t.Errorf("AppearingIn(3) = %d", agg.AppearingIn(3))
	}
	if agg.AppearingIn(1) != 4 {
		t.Errorf("AppearingIn(1) = %d", agg.AppearingIn(1))
	}
	if got := agg.AvgPerInput(); got != 2.25 {
		t.Errorf("AvgPerInput = %v", got)
	}
}

func TestRegValueTracker(t *testing.T) {
	b := trace.NewBuffer(0)
	// Write r8=5, r9=7, branch; write r8=5 again, branch; write r8=9, branch.
	write := func(reg uint8, val uint64) {
		b.Append(trace.Inst{IP: 0x10, Kind: trace.KindALU, DstReg: reg, DstValue: val,
			SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
	}
	branch := func() {
		b.Append(trace.Inst{IP: 0xAA, Kind: trace.KindCondBr, Taken: true, Target: 0x100,
			DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
	}
	write(8, 5)
	write(9, 7)
	branch()
	write(8, 5)
	branch()
	write(8, 9)
	branch()

	tr := NewRegValueTracker(0xAA, 8, 18)
	RunBlocks(b.BlockStream(0), fixedPredictor{dir: true}, tr)
	if tr.Execs() != 3 {
		t.Fatalf("Execs = %d", tr.Execs())
	}
	pts := tr.Points()
	find := func(reg uint8, val uint32) uint64 {
		for _, p := range pts {
			if p.Reg == reg && p.Value == val {
				return p.Count
			}
		}
		return 0
	}
	if find(8, 5) != 2 {
		t.Errorf("r8=5 count = %d, want 2", find(8, 5))
	}
	if find(8, 9) != 1 {
		t.Errorf("r8=9 count = %d, want 1", find(8, 9))
	}
	if find(9, 7) != 3 {
		t.Errorf("r9=7 count = %d, want 3 (sticky last-write)", find(9, 7))
	}
	if tr.DistinctValues(8) != 2 {
		t.Errorf("DistinctValues(8) = %d", tr.DistinctValues(8))
	}
	if tr.DistinctValues(10) != 0 {
		t.Errorf("DistinctValues(10) = %d", tr.DistinctValues(10))
	}
}

func TestRegValueTrackerBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range tracker did not panic")
		}
	}()
	NewRegValueTracker(0xAA, 30, 18)
}

func TestRunWithRealPredictor(t *testing.T) {
	// End-to-end smoke: gshare over the synthetic trace learns the
	// all-taken branch and the all-not-taken branch perfectly.
	tr := buildTrace(2000, 2)
	col := NewCollector(2000)
	st := RunBlocks(tr.BlockStream(0), bp.NewGShare(12, 8), col)
	if st.Accuracy() < 0.95 {
		t.Errorf("gshare on trivial branches: %v", st.Accuracy())
	}
}

// TestCriteriaScalingPreservesRates checks, property-style, that scaled
// thresholds keep the paper's per-instruction rates (modulo integer
// truncation and the small-slice floors).
func TestCriteriaScalingPreservesRates(t *testing.T) {
	base := PaperCriteria()
	if err := quick.Check(func(raw uint32) bool {
		sliceLen := uint64(raw%100_000_000) + 1_000_000
		s := base.Scaled(sliceLen)
		wantExecs := float64(base.MinExecs) * float64(sliceLen) / float64(base.SliceLen)
		wantMiss := float64(base.MinMispreds) * float64(sliceLen) / float64(base.SliceLen)
		okExecs := float64(s.MinExecs) >= wantExecs-1 && float64(s.MinExecs) <= wantExecs+1
		okMiss := float64(s.MinMispreds) >= wantMiss-1 && float64(s.MinMispreds) <= wantMiss+1
		return (okExecs || s.MinExecs == 16) && (okMiss || s.MinMispreds == 4)
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestCollectorConservation: per-branch counters must sum to the slice
// totals for arbitrary branch mixes.
func TestCollectorConservation(t *testing.T) {
	rng := xrand.New(12)
	b := trace.NewBuffer(0)
	for i := 0; i < 20000; i++ {
		ip := 0x100 + uint64(rng.Intn(50))*64
		b.Append(trace.Inst{IP: ip, Kind: trace.KindCondBr, Taken: rng.Bool(0.5),
			Target: ip + 64, DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
	}
	col := NewCollector(3000)
	RunBlocks(b.BlockStream(0), fixedPredictor{dir: true}, col)
	for _, s := range col.Slices {
		var execs, miss uint64
		for _, bs := range s.PerBranch {
			execs += bs.Execs
			miss += bs.Mispreds
		}
		if execs != s.CondExecs || miss != s.Mispreds {
			t.Fatalf("slice %d: per-branch sums (%d,%d) != totals (%d,%d)",
				s.Index, execs, miss, s.CondExecs, s.Mispreds)
		}
	}
}
