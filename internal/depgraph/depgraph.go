// Package depgraph implements the operand dependency-graph analysis of
// §IV-A: for each dynamic execution of a target (H2P) branch, it computes
// the backward dataflow closure of the branch's condition operands over
// the prior instructions (the paper uses a 5,000-instruction window) and
// identifies *dependency branches* — earlier conditional branches that
// read a value in that closure — together with the global-history
// position at which each appeared to the BPU. The distribution of those
// positions (Fig 6) is the paper's evidence that H2P history correlations
// exist but move around, defeating exact pattern matching.
package depgraph

import (
	"math"
	"sort"

	"branchlab/internal/trace"
)

// DefaultWindow is the paper's backward-analysis window.
const DefaultWindow = 5000

// ringEntry is one instruction in the sliding window annotated with
// value-identity information: every register/memory write creates a new
// value named by the writer's sequence number.
type ringEntry struct {
	ip     uint64
	isCond bool
	// srcVals are the value IDs (writer sequence numbers) the
	// instruction read; 0 = unknown/outside window.
	srcVals [3]uint64
}

// Analyzer tracks dependency branches for a set of target IPs. It
// implements the core.Observer contract.
type Analyzer struct {
	Window int
	// MaxSamples bounds how many executions per target are analyzed (the
	// backward walk is O(Window)); 0 means analyze every execution.
	MaxSamples int

	targets map[uint64]*targetState

	// ring holds the last Window instructions: head is the next slot
	// to write, size the number of filled slots.
	ring []ringEntry
	head int
	size int

	// regWriter and memWriter name the value each register and 8-byte
	// memory word holds by its writer's sequence number.
	regWriter [trace.NumRegs]uint64
	memWriter map[uint64]uint64
	seq       uint64

	// The dataflow closure of one analyze call, reused across calls. A
	// closure value whose writer is still in the window is marked by
	// stamping the writer's ring slot with gen; an older value goes in
	// old. A new call bumps gen instead of clearing mark.
	mark []uint32
	gen  uint32
	old  []uint64
}

// targetState accumulates per-target results.
type targetState struct {
	// positions maps dependency-branch IP -> history position -> count.
	positions map[uint64]map[int]uint64
	analyzed  uint64
	execs     uint64
}

// New returns an Analyzer for the given target branch IPs.
func New(window, maxSamples int, targets ...uint64) *Analyzer {
	if window <= 0 {
		window = DefaultWindow
	}
	a := &Analyzer{
		Window:     window,
		MaxSamples: maxSamples,
		targets:    make(map[uint64]*targetState, len(targets)),
		ring:       make([]ringEntry, window),
		memWriter:  make(map[uint64]uint64),
		mark:       make([]uint32, window),
	}
	for _, t := range targets {
		a.targets[t] = &targetState{positions: make(map[uint64]map[int]uint64)}
	}
	return a
}

// Inst implements the observer contract.
func (a *Analyzer) Inst(_ uint64, inst *trace.Inst) {
	a.seq++
	e := ringEntry{ip: inst.IP, isCond: inst.Kind == trace.KindCondBr}
	for k, r := range inst.SrcRegs {
		if r != trace.NoReg {
			e.srcVals[k] = a.regWriter[r]
		}
	}
	if inst.Kind == trace.KindLoad {
		e.srcVals[2] = a.memWriter[inst.MemAddr>>3]
	}

	// Analyze *before* inserting the target itself, so the window holds
	// exactly the prior instructions.
	if e.isCond {
		if st, ok := a.targets[inst.IP]; ok {
			st.execs++
			if a.MaxSamples == 0 || st.analyzed < uint64(a.MaxSamples) {
				st.analyzed++
				a.analyze(st, e)
			}
		}
	}

	a.ring[a.head] = e
	a.head = (a.head + 1) % len(a.ring)
	if a.size < len(a.ring) {
		a.size++
	}
	if inst.DstReg != trace.NoReg {
		a.regWriter[inst.DstReg] = a.seq
	}
	if inst.Kind == trace.KindStore {
		a.memWriter[inst.MemAddr>>3] = a.seq
		// Bound the memory writer map: forget very old stores.
		if len(a.memWriter) > 1<<18 {
			for k, v := range a.memWriter {
				if a.seq-v > uint64(a.Window)*4 {
					delete(a.memWriter, k)
				}
			}
		}
	}
}

// Branch implements the observer contract.
func (a *Analyzer) Branch(uint64, *trace.Inst, bool) {}

// analyze walks the window backwards from the target execution, expands
// the dataflow closure of the target's source values, and records every
// conditional branch that reads a closure value at its history position
// (1 = the branch immediately before the target).
func (a *Analyzer) analyze(st *targetState, target ringEntry) {
	if target.srcVals == [3]uint64{} {
		return
	}
	a.gen++
	if a.gen == 0 {
		clear(a.mark)
		a.gen = 1
	}
	a.old = a.old[:0]
	for _, v := range target.srcVals {
		a.join(v)
	}
	// The window holds instructions a.seq-1 down to a.seq-a.size; the
	// walk stops Window instructions back.
	depth := min(a.size, a.Window)
	histPos := 0
	// Walk newest -> oldest. Because values are writer sequence numbers
	// and writers precede readers, one backward pass expands the closure
	// transitively: when we reach a writer, its own sources join the
	// closure before any older instruction is visited.
	idx := a.head
	for k := 0; k < depth; k++ {
		if idx == 0 {
			idx = len(a.ring)
		}
		idx--
		e := &a.ring[idx]
		if a.mark[idx] == a.gen {
			// This instruction defined a closure value: its inputs are
			// also ground-truth-relevant.
			for _, v := range e.srcVals {
				a.join(v)
			}
		}
		if !e.isCond {
			continue
		}
		histPos++
		if a.readsClosure(e) {
			m := st.positions[e.ip]
			if m == nil {
				m = make(map[int]uint64)
				st.positions[e.ip] = m
			}
			m[histPos]++
		}
	}
}

// join adds value v (a writer sequence number; 0 = unknown) to the
// closure. The window entry d instructions back sits d slots before
// head, so a writer still in the window is marked at its own slot; an
// older writer is never visited by the walk and only matters to
// readsClosure, so it goes in the side list.
func (a *Analyzer) join(v uint64) {
	if v == 0 {
		return
	}
	if d := a.seq - v; d <= uint64(a.size) {
		a.mark[a.slot(d)] = a.gen
		return
	}
	for _, o := range a.old {
		if o == v {
			return
		}
	}
	a.old = append(a.old, v)
}

// readsClosure reports whether e reads a closure value.
func (a *Analyzer) readsClosure(e *ringEntry) bool {
	for _, v := range e.srcVals {
		if v == 0 {
			continue
		}
		if d := a.seq - v; d <= uint64(a.size) {
			if a.mark[a.slot(d)] == a.gen {
				return true
			}
			continue
		}
		for _, o := range a.old {
			if o == v {
				return true
			}
		}
	}
	return false
}

// slot returns the ring index of the entry d instructions before the
// current one, 1 <= d <= size.
func (a *Analyzer) slot(d uint64) int {
	i := a.head - int(d)
	if i < 0 {
		i += len(a.ring)
	}
	return i
}

// PosCount is one (dependency branch, history position) observation
// count, a Fig 6 data point.
type PosCount struct {
	DepIP uint64
	Pos   int
	Count uint64
}

// Positions returns all recorded (dependency IP, position, count)
// triples for target, sorted by IP then position.
func (a *Analyzer) Positions(target uint64) []PosCount {
	st := a.targets[target]
	if st == nil {
		return nil
	}
	var out []PosCount
	for ip, m := range st.positions {
		for pos, c := range m {
			out = append(out, PosCount{DepIP: ip, Pos: pos, Count: c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DepIP != out[j].DepIP {
			return out[i].DepIP < out[j].DepIP
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

// Summary is the Table III row for one target.
type Summary struct {
	Target      uint64
	Execs       uint64
	Analyzed    uint64
	DepBranches int // distinct dependency-branch IPs
	MinPos      int // minimum observed history position
	MaxPos      int // maximum observed history position
	// PositionsPerDep is the mean number of distinct history positions a
	// dependency branch appears at — the variation the paper highlights.
	PositionsPerDep float64
}

// Summarize returns the Table III summary for target.
func (a *Analyzer) Summarize(target uint64) Summary {
	st := a.targets[target]
	if st == nil {
		return Summary{Target: target}
	}
	s := Summary{Target: target, Execs: st.execs, Analyzed: st.analyzed,
		DepBranches: len(st.positions), MinPos: math.MaxInt64}
	totalPositions := 0
	for _, m := range st.positions {
		totalPositions += len(m)
		for pos := range m {
			if pos < s.MinPos {
				s.MinPos = pos
			}
			if pos > s.MaxPos {
				s.MaxPos = pos
			}
		}
	}
	if s.DepBranches == 0 {
		s.MinPos = 0
	} else {
		s.PositionsPerDep = float64(totalPositions) / float64(s.DepBranches)
	}
	return s
}
