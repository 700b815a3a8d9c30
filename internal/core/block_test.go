package core

import (
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// histPredictor is a little gshare: stateful and history-sensitive, so
// any reordering, skip or duplication of branches in the replay loop
// changes its predictions and is caught by the equivalence tests.
type histPredictor struct {
	hist    uint64
	table   [1 << 12]int8
	trains  int
	targets int
	seen    uint64
}

func (p *histPredictor) idx(ip uint64) uint64 { return (ip ^ p.hist) & (1<<12 - 1) }
func (p *histPredictor) Predict(ip uint64) bool {
	return p.table[p.idx(ip)] >= 0
}
func (p *histPredictor) Train(ip uint64, taken, pred bool) {
	i := p.idx(ip)
	if taken && p.table[i] < 3 {
		p.table[i]++
	}
	if !taken && p.table[i] > -4 {
		p.table[i]--
	}
	p.hist = p.hist<<1 | b2u(taken)
	p.trains++
}
func (p *histPredictor) TrainWithTarget(ip, target uint64, taken, pred bool) {
	p.targets++
	p.hist ^= target << 3
	p.Train(ip, taken, pred)
}
func (p *histPredictor) ObserveBranch(ip, target uint64, kind trace.Kind, taken bool) {
	p.hist = p.hist<<2 ^ ip ^ target
	p.seen++
}
func (p *histPredictor) Name() string { return "hist-test" }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// randomTrace mixes every instruction class with a handful of branch
// IPs whose directions are pseudo-random.
func randomTrace(n int, seed uint64) *trace.Buffer {
	r := xrand.New(seed)
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		inst := trace.Inst{IP: uint64(0x1000 + 4*i%512), Kind: trace.KindALU,
			DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}}
		switch r.Intn(10) {
		case 0, 1, 2:
			inst.Kind = trace.KindCondBr
			inst.IP = uint64(0xA000 + 64*r.Intn(12))
			inst.Taken = r.Bool(0.6)
			inst.Target = inst.IP + 32
		case 3:
			inst.Kind = trace.KindJump
			inst.Target = uint64(0xC000 + 64*r.Intn(4))
			inst.Taken = true
		case 4:
			inst.Kind = trace.KindLoad
			inst.MemAddr = r.Uint64() % (1 << 20)
			inst.DstReg = uint8(r.Intn(30))
		}
		b.Append(inst)
	}
	return b
}

// runPerInst is the pre-block reference loop: one instruction copy per
// step, semantics identical to RunBlocks by construction.
func runPerInst(tr *trace.Buffer, p bp.Predictor, obs ...Observer) RunStats {
	tt, _ := p.(interface {
		TrainWithTarget(ip, target uint64, taken, pred bool)
	})
	bo, _ := p.(bp.BranchObserver)
	var st RunStats
	var i uint64
	for ; i < uint64(tr.Len()); i++ {
		inst := tr.At(int(i))
		for _, o := range obs {
			o.Inst(i, &inst)
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
				o.Branch(i, &inst, pred)
			}
		} else if inst.Kind.IsBranch() {
			if bo != nil {
				bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
			}
		}
	}
	st.Insts = i
	return st
}

func assertCollectorsEqual(t *testing.T, got, want *Collector, label string) {
	t.Helper()
	if got.SliceLen != want.SliceLen {
		t.Fatalf("%s: slice length %d != %d", label, got.SliceLen, want.SliceLen)
	}
	if len(got.Slices) != len(want.Slices) {
		t.Fatalf("%s: %d slices, want %d", label, len(got.Slices), len(want.Slices))
	}
	for i, w := range want.Slices {
		g := got.Slices[i]
		if g.Index != w.Index || g.Insts != w.Insts || g.CondExecs != w.CondExecs || g.Mispreds != w.Mispreds {
			t.Fatalf("%s: slice %d header differs: %+v != %+v", label, i, *g, *w)
		}
		if len(g.PerBranch) != len(w.PerBranch) {
			t.Fatalf("%s: slice %d has %d branches, want %d", label, i, len(g.PerBranch), len(w.PerBranch))
		}
		for ip, wb := range w.PerBranch {
			gb := g.PerBranch[ip]
			if gb == nil || *gb != *wb {
				t.Fatalf("%s: slice %d branch %#x differs: %+v != %+v", label, i, ip, gb, wb)
			}
		}
	}
}

// The block-based loop must produce bit-identical statistics and
// collector contents to the per-instruction reference at every block
// size — the property that lets every replay site switch to blocks
// without any artifact changing.
func TestRunBlocksEquivalentToPerInstruction(t *testing.T) {
	tr := randomTrace(20_000, 7)
	wantCol := NewCollector(3_000)
	wantPred := &histPredictor{}
	want := runPerInst(tr, wantPred, wantCol)
	if want.CondExecs == 0 || want.Mispreds == 0 {
		t.Fatal("degenerate reference run")
	}
	for _, n := range []int{1, 3, 17, 255, 4096, 30_000} {
		col := NewCollector(3_000)
		pred := &histPredictor{}
		got := RunBlocks(tr.BlockStream(n), pred, col)
		if got != want {
			t.Fatalf("block=%d: stats %+v != %+v", n, got, want)
		}
		if pred.hist != wantPred.hist || pred.trains != wantPred.trains ||
			pred.targets != wantPred.targets || pred.seen != wantPred.seen {
			t.Fatalf("block=%d: predictor state diverged", n)
		}
		assertCollectorsEqual(t, col, wantCol, "block run")
	}
	// The default block size and the no-observer fast path agree too.
	pred := &histPredictor{}
	if got := RunBlocks(tr.BlockStream(0), pred); got != want {
		t.Fatalf("native fast path: stats %+v != %+v", got, want)
	}
	if pred.hist != wantPred.hist {
		t.Fatal("native fast path: predictor state diverged")
	}
}

func TestObserveBlocksEquivalent(t *testing.T) {
	tr := randomTrace(10_000, 11)
	wantCol := NewCollector(1_000)
	want := ObserveBlocks(tr.BlockStream(0), wantCol)
	for _, n := range []int{1, 7, 1024} {
		col := NewCollector(1_000)
		got := ObserveBlocks(tr.BlockStream(n), col)
		if got != want {
			t.Fatalf("block=%d: stats %+v != %+v", n, got, want)
		}
		assertCollectorsEqual(t, col, wantCol, "observe blocks")
	}
}

// A trace that ends mid-slice closes with a partial slice: slices are
// numbered from 0 in trace order and their instruction counts add up
// to the run's.
func TestObserveBlocksUnalignedTrace(t *testing.T) {
	const sliceLen = 1_000
	tr := randomTrace(10_500, 13)
	col := NewCollector(sliceLen)
	st := ObserveBlocks(tr.BlockStream(0), col)
	if st.Insts != 10_500 {
		t.Fatalf("stats counted %d insts, want 10500", st.Insts)
	}
	if len(col.Slices) != 11 {
		t.Fatalf("%d slices, want 11", len(col.Slices))
	}
	var cond uint64
	for k, s := range col.Slices {
		want := uint64(sliceLen)
		if k == 10 {
			want = 500
		}
		if s.Index != k || s.Insts != want {
			t.Fatalf("slice %d: index %d, %d insts; want index %d, %d insts", k, s.Index, s.Insts, k, want)
		}
		cond += s.CondExecs
	}
	if cond != st.CondExecs {
		t.Fatalf("slices count %d conditional branches, stats %d", cond, st.CondExecs)
	}
}
