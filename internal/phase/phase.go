// Package phase provides the recurrence-interval instrumentation of Fig 9
// and an online phase detector with a phase-conditioned predictor wrapper,
// prototyping the paper's §V-B proposal to condition branch statistics on
// program phase.
package phase

import (
	"branchlab/internal/bp"
	"branchlab/internal/stats"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// RecurrenceTracker records, per static branch IP, the distribution of
// recurrence intervals — the number of instructions between two
// consecutive dynamic executions of that IP (Fig 9). Intervals are
// reservoir-sampled per branch so hot branches stay bounded.
type RecurrenceTracker struct {
	lastSeen map[uint64]uint64
	samples  map[uint64]*stats.Reservoir
	execs    map[uint64]uint64
}

// reservoirCap bounds the per-branch interval sample.
const reservoirCap = 64

// NewRecurrenceTracker returns an empty tracker.
func NewRecurrenceTracker() *RecurrenceTracker {
	return &RecurrenceTracker{
		lastSeen: make(map[uint64]uint64),
		samples:  make(map[uint64]*stats.Reservoir),
		execs:    make(map[uint64]uint64),
	}
}

// Inst implements the core.Observer contract.
func (t *RecurrenceTracker) Inst(i uint64, inst *trace.Inst) {
	if inst.Kind != trace.KindCondBr {
		return
	}
	ip := inst.IP
	t.execs[ip]++
	if last, ok := t.lastSeen[ip]; ok {
		t.sampler(ip).Add(i - last)
	}
	t.lastSeen[ip] = i
}

func (t *RecurrenceTracker) sampler(ip uint64) *stats.Reservoir {
	r := t.samples[ip]
	if r == nil {
		r = stats.NewReservoir(reservoirCap, xrand.Mix64(ip))
		t.samples[ip] = r
	}
	return r
}

// Branch implements the core.Observer contract.
func (t *RecurrenceTracker) Branch(uint64, *trace.Inst, bool) {}

// MedianIntervals returns each branch's median recurrence interval.
// Branches executed only once ("singletons") report 0 and land in the
// first histogram bin, as in the paper.
func (t *RecurrenceTracker) MedianIntervals() map[uint64]float64 {
	out := make(map[uint64]float64, len(t.execs))
	for ip := range t.execs {
		if r, ok := t.samples[ip]; ok {
			out[ip] = r.Median()
		} else {
			out[ip] = 0
		}
	}
	return out
}

// MRIBins are Fig 9's histogram bin edges (instructions).
var MRIBins = []float64{0, 1, 100, 1_000, 10_000, 100_000, 1_000_000,
	2_000_000, 4_000_000, 8_000_000, 16_000_000, 32_000_000}

// MRIHistogram bins the median recurrence intervals per static branch IP
// into the paper's Fig 9 bins.
func (t *RecurrenceTracker) MRIHistogram() *stats.Histogram {
	h := stats.NewHistogram(MRIBins...)
	for _, m := range t.MedianIntervals() {
		h.Add(m)
	}
	return h
}

// Detector is a lightweight online phase detector: it summarizes branch
// IPs over fixed windows into a signature vector and matches each window
// against previously seen phase signatures, allocating a new phase ID
// when nothing is close. This models the on-chip phase recognition the
// paper proposes for conditioning rare-branch statistics (§V-B).
type Detector struct {
	WindowLen uint64
	Dim       int
	Threshold float64 // max normalized L1 distance to match a phase

	cur       []float64
	curCount  uint64
	phases    [][]float64
	currentID int
	history   []int
}

// NewDetector returns a detector with the given window length in
// conditional branches.
func NewDetector(windowLen uint64) *Detector {
	return &Detector{
		WindowLen: windowLen,
		Dim:       32,
		Threshold: 0.55,
		currentID: -1,
	}
}

// Observe feeds one conditional branch IP. It returns the current phase
// ID (stable within a window).
func (d *Detector) Observe(ip uint64) int {
	// Bucket-count signature: the distribution of hashed branch IPs over
	// Dim buckets characterizes which code is executing.
	if d.cur == nil {
		d.cur = make([]float64, d.Dim)
	}
	d.cur[xrand.Mix64(ip)%uint64(d.Dim)]++
	d.curCount++
	if d.curCount >= d.WindowLen {
		d.classify()
	}
	if d.currentID < 0 {
		return 0
	}
	return d.currentID
}

func (d *Detector) classify() {
	total := 0.0
	for _, v := range d.cur {
		total += v
	}
	if total > 0 {
		for i := range d.cur {
			d.cur[i] /= total
		}
	}
	best, bestDist := -1, d.Threshold
	for id, sig := range d.phases {
		dist := 0.0
		for i := range sig {
			diff := sig[i] - d.cur[i]
			if diff < 0 {
				diff = -diff
			}
			dist += diff
		}
		if dist < bestDist {
			best, bestDist = id, dist
		}
	}
	if best < 0 {
		d.phases = append(d.phases, append([]float64(nil), d.cur...))
		best = len(d.phases) - 1
	} else {
		// Drift the signature toward the latest window.
		sig := d.phases[best]
		for i := range sig {
			sig[i] = 0.9*sig[i] + 0.1*d.cur[i]
		}
	}
	d.currentID = best
	d.history = append(d.history, best)
	for i := range d.cur {
		d.cur[i] = 0
	}
	d.curCount = 0
}

// NumPhases returns how many distinct phases have been identified.
func (d *Detector) NumPhases() int { return len(d.phases) }

// History returns the sequence of per-window phase IDs.
func (d *Detector) History() []int { return d.history }

// ConditionedPredictor indexes a pool of sub-predictors by the current
// phase, so each phase trains its own statistics — the paper's proposed
// mechanism for rare branches whose behaviour is stable within a phase
// but unstable across phases. It implements bp.Predictor.
type ConditionedPredictor struct {
	detector *Detector
	mk       func() bp.Predictor
	subs     []bp.Predictor
	maxSubs  int
}

// NewConditionedPredictor builds a phase-conditioned predictor; mk
// constructs one sub-predictor per detected phase (up to maxPhases,
// after which phases share the last predictor).
func NewConditionedPredictor(windowLen uint64, maxPhases int, mk func() bp.Predictor) *ConditionedPredictor {
	if maxPhases < 1 {
		maxPhases = 1
	}
	return &ConditionedPredictor{
		detector: NewDetector(windowLen),
		mk:       mk,
		maxSubs:  maxPhases,
	}
}

func (c *ConditionedPredictor) sub() bp.Predictor {
	id := c.detector.currentID
	if id < 0 {
		id = 0
	}
	if id >= c.maxSubs {
		id = c.maxSubs - 1
	}
	for len(c.subs) <= id {
		c.subs = append(c.subs, c.mk())
	}
	return c.subs[id]
}

// Predict implements bp.Predictor.
func (c *ConditionedPredictor) Predict(ip uint64) bool { return c.sub().Predict(ip) }

// Train implements bp.Predictor. The phase detector advances at train
// time so prediction and training see the same phase.
func (c *ConditionedPredictor) Train(ip uint64, taken, pred bool) {
	c.sub().Train(ip, taken, pred)
	c.detector.Observe(ip)
}

// Name implements bp.Predictor.
func (c *ConditionedPredictor) Name() string { return "phase-conditioned" }

// NumPhases exposes the detector's phase count.
func (c *ConditionedPredictor) NumPhases() int { return c.detector.NumPhases() }
