package phase

import (
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

func condAt(ip uint64) trace.Inst {
	return trace.Inst{IP: ip, Kind: trace.KindCondBr, Taken: true,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}}
}

func TestRecurrenceIntervals(t *testing.T) {
	tr := NewRecurrenceTracker()
	// Branch 0xA executes every 10 instructions; 0xB every 100.
	for i := uint64(0); i < 1000; i++ {
		var inst trace.Inst
		switch {
		case i%10 == 0:
			inst = condAt(0xA)
		case i%100 == 1:
			inst = condAt(0xB)
		default:
			inst = trace.Inst{Kind: trace.KindALU}
		}
		tr.Inst(i, &inst)
	}
	med := tr.MedianIntervals()
	if med[0xA] != 10 {
		t.Errorf("median interval for 0xA = %v, want 10", med[0xA])
	}
	if med[0xB] != 100 {
		t.Errorf("median interval for 0xB = %v, want 100", med[0xB])
	}
}

func TestSingletonBranchesLandInFirstBin(t *testing.T) {
	tr := NewRecurrenceTracker()
	inst := condAt(0xC)
	tr.Inst(5, &inst)
	h := tr.MRIHistogram()
	if h.Counts[0] != 1 {
		t.Errorf("singleton not in first bin: %v", h.Counts)
	}
}

func TestMRIHistogramBins(t *testing.T) {
	tr := NewRecurrenceTracker()
	// Execute a branch twice, 500k instructions apart: median 500k lands
	// in the 100K-1M bin (index 5).
	a := condAt(0xD)
	tr.Inst(0, &a)
	tr.Inst(500_000, &a)
	h := tr.MRIHistogram()
	if h.Counts[5] != 1 {
		t.Errorf("500k interval not in 100K-1M bin: %v", h.Counts)
	}
	if h.BinLabel(5) != "100K-1M" {
		t.Errorf("bin label = %q", h.BinLabel(5))
	}
}

func TestDetectorSeparatesPhases(t *testing.T) {
	d := NewDetector(100)
	// Phase A: IPs 0x1000..0x1009; Phase B: IPs 0x9000..0x9009.
	var idsA, idsB []int
	for rep := 0; rep < 6; rep++ {
		for i := 0; i < 300; i++ {
			id := d.Observe(0x1000 + uint64(i%10)*64)
			if rep > 0 {
				idsA = append(idsA, id)
			}
		}
		for i := 0; i < 300; i++ {
			id := d.Observe(0x9000 + uint64(i%10)*64)
			if rep > 0 {
				idsB = append(idsB, id)
			}
		}
	}
	if d.NumPhases() < 2 {
		t.Fatalf("phases detected = %d, want >= 2", d.NumPhases())
	}
	if d.NumPhases() > 4 {
		t.Errorf("phases detected = %d, over-fragmented", d.NumPhases())
	}
	// After warmup, the dominant ID within each region must differ.
	if mode(idsA) == mode(idsB) {
		t.Error("detector assigned the same phase to both regions")
	}
}

func mode(xs []int) int {
	counts := map[int]int{}
	best, bestN := 0, -1
	for _, x := range xs {
		counts[x]++
		if counts[x] > bestN {
			best, bestN = x, counts[x]
		}
	}
	return best
}

func TestConditionedPredictorBeatsFlatOnPhaseFlippingBranch(t *testing.T) {
	// A rare branch whose direction is stable within a phase but flips
	// across phases, with phase visits shorter than 2-bit hysteresis can
	// absorb: the flat bimodal loses a fixed fraction of every visit,
	// while phase-conditioning gives each phase its own settled counters
	// (the paper's §V-B proposal for rare branches).
	runSeq := func(p bp.Predictor) float64 {
		correct, total := 0, 0
		for seg := 0; seg < 400; seg++ {
			ph := seg % 2
			// A burst of phase-signature branches lets the detector
			// identify the phase (each phase runs distinct code).
			for i := 0; i < 150; i++ {
				sigIP := 0x1000 + uint64(ph)*0x80000 + uint64(i%12)*64
				sp := p.Predict(sigIP)
				p.Train(sigIP, 0, true, sp)
			}
			// The rare phase-dependent branch: few executions per visit.
			for i := 0; i < 6; i++ {
				ip := uint64(0xFFF0)
				taken := ph == 0
				pred := p.Predict(ip)
				if pred == taken {
					correct++
				}
				total++
				p.Train(ip, 0, taken, pred)
			}
		}
		return float64(correct) / float64(total)
	}
	flat := runSeq(bp.NewBimodal(12))
	cond := runSeq(NewConditionedPredictor(75, 8, func() bp.Predictor { return bp.NewBimodal(12) }))
	if flat > 0.85 {
		t.Errorf("flat bimodal = %v; scenario should defeat plain hysteresis", flat)
	}
	if cond <= flat+0.1 {
		t.Errorf("phase-conditioned (%v) should clearly beat flat bimodal (%v)", cond, flat)
	}
}

func TestConditionedPredictorName(t *testing.T) {
	c := NewConditionedPredictor(64, 4, func() bp.Predictor { return bp.NewBimodal(4) })
	if c.Name() == "" {
		t.Error("empty name")
	}
	if c.NumPhases() != 0 {
		t.Error("phases before any observation")
	}
}

func TestRecurrenceTrackerIgnoresNonBranches(t *testing.T) {
	tr := NewRecurrenceTracker()
	inst := trace.Inst{Kind: trace.KindALU, IP: 0x1}
	for i := uint64(0); i < 100; i++ {
		tr.Inst(i, &inst)
	}
	if len(tr.MedianIntervals()) != 0 {
		t.Error("non-branches tracked")
	}
}

func TestDetectorDeterministic(t *testing.T) {
	mk := func() []int {
		d := NewDetector(50)
		rng := xrand.New(3)
		var ids []int
		for i := 0; i < 5000; i++ {
			ids = append(ids, d.Observe(0x1000+uint64(rng.Intn(30))*64))
		}
		return ids
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("detector not deterministic")
		}
	}
}
