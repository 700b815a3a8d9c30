package depgraph

import (
	"reflect"
	"testing"

	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

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

func runAnalyzer(tr *trace.Buffer, targets ...uint64) *Analyzer {
	a := New(200, 0, targets...)
	for i := 0; i < tr.Len(); i++ {
		inst := tr.At(i)
		a.Inst(uint64(i), &inst)
	}
	return a
}

// Splitting the target set across analyzers that each replay the whole
// trace, then merging, must equal one analyzer over the union: the
// supported sharding mode for Table III / Fig 6 style studies.
func TestMergeDisjointTargetsExact(t *testing.T) {
	tr := depTrace(30_000, 9)
	targets := []uint64{0xD000, 0xD040, 0xD080}
	want := runAnalyzer(tr, targets...)

	a := runAnalyzer(tr, targets[0])
	b := runAnalyzer(tr, targets[1])
	c := runAnalyzer(tr, targets[2])
	a.Merge(b)
	a.Merge(c)

	for _, target := range targets {
		if !reflect.DeepEqual(a.Positions(target), want.Positions(target)) {
			t.Fatalf("positions for target %#x differ after merge", target)
		}
		if a.Summarize(target) != want.Summarize(target) {
			t.Fatalf("summary for target %#x differs after merge", target)
		}
	}
	if s := want.Summarize(targets[0]); s.DepBranches == 0 || s.Execs == 0 {
		t.Fatal("degenerate trace: targets found no dependencies")
	}
}

// Merging analyzers that observed disjoint halves of the execs of the
// same target sums counts deterministically (the documented overlap
// semantics).
func TestMergeOverlappingTargetsSums(t *testing.T) {
	tr := depTrace(20_000, 21)
	const target = 0xD000
	a := runAnalyzer(tr, target)
	b := runAnalyzer(tr, target)
	merged := runAnalyzer(tr, target)
	merged.Merge(runAnalyzer(tr, target))

	sa, sb, sm := a.Summarize(target), b.Summarize(target), merged.Summarize(target)
	if sm.Execs != sa.Execs+sb.Execs || sm.Analyzed != sa.Analyzed+sb.Analyzed {
		t.Fatalf("merged exec counts %+v do not sum %+v + %+v", sm, sa, sb)
	}
	for _, p := range merged.Positions(target) {
		if p.Count%2 != 0 {
			t.Fatalf("doubled analyzer should have even counts, got %+v", p)
		}
	}
}
