package depgraph

import (
	"context"
	"math"
	"reflect"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
	"branchlab/internal/xrand"
)

// mapAnalyzer is the analyzer the ring-slot closure replaced, kept as
// its oracle: the same window bookkeeping, with the closure held in a
// map keyed by writer sequence number and cleared per analysis.
type mapAnalyzer struct {
	*Analyzer
	closure map[uint64]struct{}
}

func newMapAnalyzer(window, maxSamples int, targets ...uint64) *mapAnalyzer {
	return &mapAnalyzer{Analyzer: New(window, maxSamples, targets...), closure: make(map[uint64]struct{})}
}

// Inst is Analyzer.Inst with the map-based analyze.
func (o *mapAnalyzer) Inst(_ uint64, inst *trace.Inst) {
	a := o.Analyzer
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
	if e.isCond {
		if st, ok := a.targets[inst.IP]; ok {
			st.execs++
			if a.MaxSamples == 0 || st.analyzed < uint64(a.MaxSamples) {
				st.analyzed++
				o.analyze(st, e)
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
		if len(a.memWriter) > 1<<18 {
			for k, v := range a.memWriter {
				if a.seq-v > uint64(a.Window)*4 {
					delete(a.memWriter, k)
				}
			}
		}
	}
}

func (o *mapAnalyzer) analyze(st *targetState, target ringEntry) {
	a, closure := o.Analyzer, o.closure
	for k := range closure {
		delete(closure, k)
	}
	for _, v := range target.srcVals {
		if v != 0 {
			closure[v] = struct{}{}
		}
	}
	if len(closure) == 0 {
		return
	}
	minSeq := uint64(1)
	if a.seq > uint64(a.Window) {
		minSeq = a.seq - uint64(a.Window)
	}
	histPos := 0
	for k := 1; k <= a.size; k++ {
		idx := a.head - k
		if idx < 0 {
			idx += len(a.ring)
		}
		e, seq := &a.ring[idx], a.seq-uint64(k)
		if seq < minSeq {
			break
		}
		if e.isCond {
			histPos++
		}
		if _, ok := closure[seq]; ok {
			for _, v := range e.srcVals {
				if v != 0 {
					closure[v] = struct{}{}
				}
			}
		}
		if e.isCond {
			reads := false
			for _, v := range e.srcVals {
				if v == 0 {
					continue
				}
				if _, ok := closure[v]; ok {
					reads = true
					break
				}
			}
			if reads {
				m := st.positions[e.ip]
				if m == nil {
					m = make(map[int]uint64)
					st.positions[e.ip] = m
				}
				m[histPos]++
			}
		}
	}
}

// quickTopH2P records a SPECint-like workload's input-0 trace at the
// Quick experiment budget and screens it with TAGE-SC-L 8KB under the
// paper's criteria at the Quick slice length, returning the trace and
// its top H2P by executions (0 if none): Table III's analysis target.
func quickTopH2P(tb testing.TB, s *workload.Spec) (*trace.Buffer, uint64) {
	const budget, sliceLen = 400_000, 200_000
	tr, err := s.RecordCtx(context.Background(), 0, budget)
	if err != nil {
		tb.Fatal(err)
	}
	col := core.NewCollector(sliceLen)
	core.RunBlocks(tr.BlockStream(0), tage.New(tage.Config8KB()), col)
	hh := core.PaperCriteria().Scaled(sliceLen).Screen(col).HeavyHitters()
	if len(hh) == 0 {
		return tr, 0
	}
	return tr, hh[0].IP
}

// matchOracle replays the blocks bs returns through a fresh Analyzer
// (after prep) and through the map oracle, and fails unless their
// positions and summaries agree for every target.
func matchOracle(t *testing.T, name string, bs func() trace.BlockStream, window, maxSamples int, prep func(*Analyzer), targets ...uint64) {
	t.Helper()
	a := New(window, maxSamples, targets...)
	if prep != nil {
		prep(a)
	}
	o := newMapAnalyzer(window, maxSamples, targets...)
	core.ObserveBlocks(bs(), a)
	core.ObserveBlocks(bs(), o)
	for _, tgt := range targets {
		if got, want := a.Positions(tgt), o.Positions(tgt); !reflect.DeepEqual(got, want) {
			t.Errorf("%s target %#x: positions differ from the map oracle (%d vs %d triples)", name, tgt, len(got), len(want))
		}
		if got, want := a.Summarize(tgt), o.Summarize(tgt); got != want {
			t.Errorf("%s target %#x: summary %+v, map oracle %+v", name, tgt, got, want)
		}
	}
}

// TestAnalyzeMatchesMapOracle checks the ring-slot closure against the
// map oracle on every Quick SPECint-like trace's top H2P at Table III's
// window and sample cap.
func TestAnalyzeMatchesMapOracle(t *testing.T) {
	specs := workload.SPECint2017Like()
	if testing.Short() {
		specs = specs[:3]
	}
	for _, s := range specs {
		tr, target := quickTopH2P(t, s)
		if target == 0 {
			continue
		}
		matchOracle(t, s.Name, func() trace.BlockStream { return tr.BlockStream(0) },
			DefaultWindow, 4000, nil, target)
	}
}

// depTrace builds a trace where several target branches read registers
// written by earlier instructions, so every target accumulates
// dependency branches at varied history positions.
func depTrace(n int, seed uint64) *trace.Buffer {
	r := xrand.New(seed)
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		switch r.Intn(6) {
		case 0: // define a value
			b.Append(trace.Inst{IP: 0x100, Kind: trace.KindALU,
				DstReg: uint8(r.Intn(8)), DstValue: r.Uint64() & 0xFF,
				SrcRegs: [2]uint8{uint8(r.Intn(8)), trace.NoReg}})
		case 1, 2: // dependency-branch candidates reading a register
			b.Append(trace.Inst{IP: uint64(0xB000 + 64*r.Intn(6)), Kind: trace.KindCondBr,
				Taken: r.Bool(0.5), Target: 0xB800, DstReg: trace.NoReg,
				SrcRegs: [2]uint8{uint8(r.Intn(8)), trace.NoReg}})
		case 3: // target branches
			b.Append(trace.Inst{IP: uint64(0xD000 + 64*r.Intn(3)), Kind: trace.KindCondBr,
				Taken: r.Bool(0.5), Target: 0xD800, DstReg: trace.NoReg,
				SrcRegs: [2]uint8{uint8(r.Intn(8)), trace.NoReg}})
		default:
			b.Append(trace.Inst{IP: 0x104, Kind: trace.KindALU,
				DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
		}
	}
	return b
}

// TestAnalyzeOracleSyntheticCases covers the closure's edge cases
// against the map oracle: windows so small that many closure values
// outlive them (the side list), a trace shorter than the window (a
// partly filled ring), and the generation counter wrapping past
// MaxUint32 over marks left behind by an earlier generation cycle.
func TestAnalyzeOracleSyntheticCases(t *testing.T) {
	long := depTrace(30_000, 5)
	short := depTrace(150, 6)
	targets := []uint64{0xD000, 0xD040, 0xD080}
	// A match over targets that find no dependencies would show nothing.
	a := New(200, 0, targets...)
	core.ObserveBlocks(long.BlockStream(0), a)
	for _, target := range targets {
		if s := a.Summarize(target); s.DepBranches == 0 || s.Execs == 0 {
			t.Fatalf("degenerate trace: target %#x found no dependencies", target)
		}
	}
	blocks := func(tr *trace.Buffer) func() trace.BlockStream {
		return func() trace.BlockStream { return tr.BlockStream(0) }
	}
	for _, w := range []int{4, 16, 64, 200} {
		matchOracle(t, "small window", blocks(long), w, 0, nil, targets...)
	}
	for _, w := range []int{200, DefaultWindow} {
		matchOracle(t, "partly filled ring", blocks(short), w, 0, nil, targets...)
	}
	// Stale marks from a previous cycle hold generations 1..7; unless the
	// wrap clears mark, the analyses after it would see them as members.
	wrap := func(a *Analyzer) {
		a.gen = math.MaxUint32 - 2
		for i := range a.mark {
			a.mark[i] = uint32(i%7 + 1)
		}
	}
	matchOracle(t, "generation wrap", blocks(long), 64, 0, wrap, targets...)
}

// TestSideListValueCounts checks the side list directly: a dependency
// branch reading a closure value whose writer has left the window.
func TestSideListValueCounts(t *testing.T) {
	const rOld = 12
	insts := []trace.Inst{alu(0x10, rOld)} // writer that will leave the window
	for i := 0; i < 60; i++ {
		insts = append(insts, alu(0x50, rOther))
	}
	insts = append(insts,
		condbr(0xD0, rOld),       // reads the old value: a dependency branch
		alu(0x20, rTarget, rOld), // in-window writer of the target's value
		condbr(0xAA, rTarget))    // target
	a := New(50, 0, 0xAA)
	feed(a, insts)
	o := newMapAnalyzer(50, 0, 0xAA)
	for i := range insts {
		o.Inst(uint64(i), &insts[i])
	}
	want := []PosCount{{DepIP: 0xD0, Pos: 1, Count: 1}}
	if got := a.Positions(0xAA); !reflect.DeepEqual(got, want) {
		t.Errorf("positions = %+v, want %+v", got, want)
	}
	if got := o.Positions(0xAA); !reflect.DeepEqual(got, want) {
		t.Errorf("map oracle positions = %+v, want %+v", got, want)
	}
}

// depgraphSink keeps benchmarked analyzers live.
var depgraphSink *Analyzer

// BenchmarkDepgraph times Table III's dependency analysis of one Quick
// trace's top H2P: window 5000, at most 4000 analyzed executions.
func BenchmarkDepgraph(b *testing.B) {
	s, _ := workload.ByName("605.mcf_s")
	tr, target := quickTopH2P(b, s)
	if target == 0 {
		b.Fatal("605.mcf_s has no H2P at the Quick budget")
	}
	for b.Loop() {
		depgraphSink = New(DefaultWindow, 4000, target)
		core.ObserveBlocks(tr.BlockStream(0), depgraphSink)
	}
}
