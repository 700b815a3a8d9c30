// Package core is the paper's measurement framework: it drives traces
// through predictors, collects per-slice per-branch statistics, screens
// for systematically hard-to-predict (H2P) branches with the paper's
// criteria, ranks heavy hitters, and aggregates H2P appearance across
// application inputs — the machinery behind Tables I and II and Figs 2-4.
package core

import (
	"sort"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// BranchStats are execution/misprediction counters for one static branch.
type BranchStats struct {
	Execs    uint64
	Mispreds uint64
}

// Accuracy returns 1 - mispredictions/executions (1 when never executed).
func (b BranchStats) Accuracy() float64 {
	if b.Execs == 0 {
		return 1
	}
	return 1 - float64(b.Mispreds)/float64(b.Execs)
}

// SliceStats aggregates one fixed-length instruction slice, the unit of
// the paper's methodology (30M instructions there, scaled here).
type SliceStats struct {
	Index     int
	Insts     uint64
	CondExecs uint64
	Mispreds  uint64
	PerBranch map[uint64]*BranchStats
}

// Accuracy returns the slice's overall conditional accuracy.
func (s *SliceStats) Accuracy() float64 {
	if s.CondExecs == 0 {
		return 1
	}
	return 1 - float64(s.Mispreds)/float64(s.CondExecs)
}

// Observer receives per-instruction callbacks during a measurement run.
// Implementations include the Collector and the analysis substrates
// (dependency graphs, recurrence tracking, BBV collection).
//
// Observers must treat *inst as read-only: the measurement loops
// iterate trace blocks in place, so the pointer aliases shared backing
// storage (a cached trace buffer) and a mutation would corrupt every
// later replay of the same trace.
type Observer interface {
	// Inst is called for every instruction with its index in the run.
	// Indices start at 0 and rise by one per instruction, and one
	// observer serves one run: index-keyed observers (slice
	// collectors, BBV windows, recurrence trackers) rely on both.
	Inst(i uint64, inst *trace.Inst)
	// Branch is called for every conditional branch after prediction.
	Branch(i uint64, inst *trace.Inst, pred bool)
}

// Collector splits a run into slices and accumulates per-branch counters.
type Collector struct {
	SliceLen uint64
	Slices   []*SliceStats
	cur      *SliceStats
	// end is the first instruction index past cur's slice; comparing
	// against it replaces a per-instruction division in Inst.
	end uint64
}

// NewCollector returns a Collector with the given slice length.
func NewCollector(sliceLen uint64) *Collector {
	if sliceLen == 0 {
		panic("core: zero slice length")
	}
	return &Collector{SliceLen: sliceLen}
}

// Inst implements Observer.
func (c *Collector) Inst(i uint64, inst *trace.Inst) {
	if c.cur == nil || i >= c.end {
		c.setSlice(i / c.SliceLen)
	}
	c.cur.Insts++
}

// setSlice opens the slice with the given index. Indices only ascend,
// so the new slice always goes after the ones already collected.
func (c *Collector) setSlice(idx uint64) {
	c.cur = &SliceStats{
		Index:     int(idx),
		PerBranch: make(map[uint64]*BranchStats),
	}
	c.Slices = append(c.Slices, c.cur)
	c.end = (idx + 1) * c.SliceLen
}

// Branch implements Observer.
func (c *Collector) Branch(i uint64, inst *trace.Inst, pred bool) {
	s := c.cur
	if s == nil {
		return
	}
	s.CondExecs++
	b := s.PerBranch[inst.IP]
	if b == nil {
		b = &BranchStats{}
		s.PerBranch[inst.IP] = b
	}
	b.Execs++
	if pred != inst.Taken {
		s.Mispreds++
		b.Mispreds++
	}
}

// Totals sums per-branch counters over all slices.
func (c *Collector) Totals() map[uint64]*BranchStats {
	out := make(map[uint64]*BranchStats)
	for _, s := range c.Slices {
		for ip, b := range s.PerBranch {
			t := out[ip]
			if t == nil {
				t = &BranchStats{}
				out[ip] = t
			}
			t.Execs += b.Execs
			t.Mispreds += b.Mispreds
		}
	}
	return out
}

// Accuracy returns overall conditional accuracy across all slices.
func (c *Collector) Accuracy() float64 {
	var execs, miss uint64
	for _, s := range c.Slices {
		execs += s.CondExecs
		miss += s.Mispreds
	}
	if execs == 0 {
		return 1
	}
	return 1 - float64(miss)/float64(execs)
}

// AccuracyExcluding returns conditional accuracy ignoring the given IPs,
// Table I's "Avg. Acc. excl. H2Ps" column.
func (c *Collector) AccuracyExcluding(exclude map[uint64]bool) float64 {
	var execs, miss uint64
	for _, s := range c.Slices {
		for ip, b := range s.PerBranch {
			if exclude[ip] {
				continue
			}
			execs += b.Execs
			miss += b.Mispreds
		}
	}
	if execs == 0 {
		return 1
	}
	return 1 - float64(miss)/float64(execs)
}

// StaticBranches returns the number of distinct conditional-branch IPs
// observed over the whole run.
func (c *Collector) StaticBranches() int { return len(c.Totals()) }

// MedianStaticPerSlice returns the median count of distinct branch IPs
// per slice (Table I "Median per Slice").
func (c *Collector) MedianStaticPerSlice() int {
	if len(c.Slices) == 0 {
		return 0
	}
	counts := make([]int, len(c.Slices))
	for i, s := range c.Slices {
		counts[i] = len(s.PerBranch)
	}
	sort.Ints(counts)
	return counts[len(counts)/2]
}

// RunStats summarizes a measurement pass.
type RunStats struct {
	Insts     uint64
	CondExecs uint64
	Mispreds  uint64
}

// Accuracy returns overall conditional accuracy.
func (r RunStats) Accuracy() float64 {
	if r.CondExecs == 0 {
		return 1
	}
	return 1 - float64(r.Mispreds)/float64(r.CondExecs)
}

// MPKI returns mispredictions per thousand instructions.
func (r RunStats) MPKI() float64 {
	if r.Insts == 0 {
		return 0
	}
	return 1000 * float64(r.Mispreds) / float64(r.Insts)
}

// targetTrainer is the optional predictor extension trained with the
// branch target as well as the direction (TAGE-SC-L's IMLI component
// keys on it). RunBlocks resolves the assertion once per run, not once per
// branch: this is the simulator's innermost loop.
type targetTrainer interface {
	TrainWithTarget(ip, target uint64, taken, pred bool)
}

// RunBlocks drives the stream through the predictor (the CBP-style
// measurement loop: predict at fetch, train at retire, observe all
// control flow) and fans events out to the observers. The loop iterates
// the trace in blocks (zero-copy for every Buffer and cache replay), so
// the per-instruction cost is the predictor and the observers, not
// stream dispatch. Runs with no observers — the pure-MPKI sweeps — take
// a specialized loop with no fan-out work.
func RunBlocks(bs trace.BlockStream, p bp.Predictor, obs ...Observer) RunStats {
	tt, _ := p.(targetTrainer)
	bo, _ := p.(bp.BranchObserver)
	if len(obs) == 0 {
		return runNoObservers(bs, p, tt, bo)
	}
	var st RunStats
	var i uint64
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for j := range blk {
			inst := &blk[j]
			for _, o := range obs {
				o.Inst(i, inst)
			}
			if inst.Kind == trace.KindCondBr {
				st.CondExecs++
				pred := p.Predict(inst.IP)
				if pred != inst.Taken {
					st.Mispreds++
				}
				if tt != nil {
					tt.TrainWithTarget(inst.IP, inst.Target, inst.Taken, pred)
				} else {
					p.Train(inst.IP, inst.Taken, pred)
				}
				for _, o := range obs {
					o.Branch(i, inst, pred)
				}
			} else if inst.Kind.IsBranch() {
				if bo != nil {
					bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
				}
			}
			i++
		}
	}
	st.Insts = i
	return st
}

// ObserveBlocks replays a stream through observers with no predictor at
// all. The analysis substrates (dependency graphs, recurrence tracking,
// BBV collection, register-value tracking, CNN history collection)
// consume only trace-visible signals — their Branch callbacks ignore
// the prediction — so analysis passes skip prediction work entirely.
// Branch callbacks receive the resolved direction as the prediction
// (never counted as a misprediction).
func ObserveBlocks(bs trace.BlockStream, obs ...Observer) RunStats {
	var st RunStats
	var i uint64
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for j := range blk {
			inst := &blk[j]
			for _, o := range obs {
				o.Inst(i, inst)
			}
			if inst.Kind == trace.KindCondBr {
				st.CondExecs++
				for _, o := range obs {
					o.Branch(i, inst, inst.Taken)
				}
			}
			i++
		}
	}
	st.Insts = i
	return st
}

// runNoObservers is RunBlocks' fast path for pure-MPKI measurement: identical
// prediction/training semantics, no observer fan-out in the loop body.
// Predictors that implement bp.BlockRunner (TAGE-SC-L) consume whole
// blocks in one call — the innermost loop then lives inside the
// predictor with its dispatch inlined, and the driver/predictor boundary
// costs one interface call per block instead of several per branch.
func runNoObservers(bs trace.BlockStream, p bp.Predictor, tt targetTrainer, bo bp.BranchObserver) RunStats {
	var st RunStats
	var i uint64
	if br, ok := p.(bp.BlockRunner); ok {
		for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
			cond, miss := br.RunBlock(blk)
			st.CondExecs += cond
			st.Mispreds += miss
			i += uint64(len(blk))
		}
		st.Insts = i
		return st
	}
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for j := range blk {
			inst := &blk[j]
			if inst.Kind == trace.KindCondBr {
				st.CondExecs++
				pred := p.Predict(inst.IP)
				if pred != inst.Taken {
					st.Mispreds++
				}
				if tt != nil {
					tt.TrainWithTarget(inst.IP, inst.Target, inst.Taken, pred)
				} else {
					p.Train(inst.IP, inst.Taken, pred)
				}
			} else if inst.Kind.IsBranch() {
				if bo != nil {
					bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
				}
			}
		}
		i += uint64(len(blk))
	}
	st.Insts = i
	return st
}
