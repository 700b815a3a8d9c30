package program

import (
	"context"
	"testing"

	"branchlab/internal/trace"
)

func countingPayload(e *Emitter) {
	for e.Running() {
		e.Compute(10)
		e.Cond(0, e.Rand().Bool(0.5))
	}
}

// count drains bs and returns the number of instructions it produced.
func count(bs trace.BlockStream) uint64 {
	var n uint64
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		n += uint64(len(blk))
	}
	return n
}

func TestBudgetExact(t *testing.T) {
	for _, budget := range []uint64{0, 1, 100, 12345} {
		s := Run(context.Background(), 1, budget, countingPayload)
		n := count(s)
		s.Close()
		if n != budget {
			t.Errorf("budget %d: yielded %d instructions", budget, n)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRecord(t, 42, 50000, countingPayload)
	b := mustRecord(t, 42, 50000, countingPayload)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("instruction %d differs", i)
		}
	}
	c := mustRecord(t, 43, 50000, countingPayload)
	same := 0
	for i := 0; i < a.Len(); i++ {
		if a.At(i) == c.At(i) {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical traces")
	}
}

func TestEarlyCloseReleasesProducer(t *testing.T) {
	// A huge budget with an early Close must not leak or deadlock; run
	// many to amplify leaks.
	for i := 0; i < 50; i++ {
		s := Run(context.Background(), uint64(i), 1<<40, countingPayload)
		for j := 0; j < 3; j++ {
			s.NextBlock()
		}
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Double close is safe.
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
}

func TestBranchIPsStable(t *testing.T) {
	var ip5, ip5b, ip9 uint64
	payload := func(e *Emitter) {
		ip5 = e.BranchIP(5)
		ip9 = e.BranchIP(9)
		e.Cond(5, true)
		e.Compute(100)
		ip5b = e.BranchIP(5)
		e.Cond(9, false)
	}
	b := mustRecord(t, 1, 1000, payload)
	if ip5 != ip5b {
		t.Error("BranchIP not stable across calls")
	}
	if ip5 == ip9 {
		t.Error("distinct branches share an IP")
	}
	var sawIP5, sawIP9 bool
	for i := 0; i < b.Len(); i++ {
		inst := b.At(i)
		if inst.Kind == trace.KindCondBr {
			switch inst.IP {
			case ip5:
				sawIP5 = true
				if !inst.Taken {
					t.Error("branch 5 should be taken")
				}
			case ip9:
				sawIP9 = true
				if inst.Taken {
					t.Error("branch 9 should be not-taken")
				}
			}
		}
	}
	if !sawIP5 || !sawIP9 {
		t.Error("emitted branches missing from trace")
	}
}

func TestSetVarDataflowVisible(t *testing.T) {
	const v = VarID(3)
	payload := func(e *Emitter) {
		e.SetVar(v, 0xBEEF)
		e.Cond(1, true, v)
	}
	b := mustRecord(t, 1, 10, payload)
	if b.Len() != 2 {
		t.Fatalf("trace length %d", b.Len())
	}
	def := b.At(0)
	use := b.At(1)
	if def.DstReg != v.reg() || def.DstValue != 0xBEEF {
		t.Errorf("def wrong: %+v", def)
	}
	if use.SrcRegs[0] != v.reg() {
		t.Errorf("use does not read var register: %+v", use)
	}
	if def.DstReg < 8 {
		t.Error("variable registers must avoid scratch range")
	}
}

func TestCondBackwardTargets(t *testing.T) {
	payload := func(e *Emitter) {
		e.Compute(5)
		e.CondBackward(100, true)
	}
	b := mustRecord(t, 1, 100, payload)
	var br *trace.Inst
	for i := 0; i < b.Len(); i++ {
		inst := b.At(i)
		if inst.Kind == trace.KindCondBr {
			br = &inst
			break
		}
	}
	if br == nil {
		t.Fatal("no branch emitted")
	}
	if br.Target >= br.IP {
		t.Errorf("CondBackward target %#x not below IP %#x", br.Target, br.IP)
	}
}

func TestCallRetBalance(t *testing.T) {
	payload := func(e *Emitter) {
		for e.Running() {
			e.Call(1)
			e.Compute(5)
			e.Call(2)
			e.Ret()
			e.Ret()
			e.Compute(3)
		}
	}
	b := mustRecord(t, 1, 10000, payload)
	calls, rets := 0, 0
	for i := 0; i < b.Len(); i++ {
		switch b.At(i).Kind {
		case trace.KindCall:
			calls++
		case trace.KindRet:
			rets++
		}
	}
	if calls == 0 {
		t.Fatal("no calls emitted")
	}
	if rets > calls {
		t.Errorf("more returns (%d) than calls (%d)", rets, calls)
	}
	if calls-rets > 2 {
		t.Errorf("call/ret unbalanced: %d vs %d", calls, rets)
	}
}

func TestRetWithoutCallIsNoop(t *testing.T) {
	b := mustRecord(t, 1, 100, func(e *Emitter) {
		e.Ret()
		e.Compute(3)
	})
	if b.Len() != 3 {
		t.Errorf("unexpected trace length %d (Ret should be a no-op)", b.Len())
	}
}

func TestMemoryOpsCarryAddresses(t *testing.T) {
	b := mustRecord(t, 1, 100, func(e *Emitter) {
		e.Load(0x1234)
		e.Store(0x5678)
		e.SetVarLoad(2, 0x9ABC, 7)
	})
	if b.At(0).Kind != trace.KindLoad || b.At(0).MemAddr != 0x1234 {
		t.Errorf("load wrong: %+v", b.At(0))
	}
	if b.At(1).Kind != trace.KindStore || b.At(1).MemAddr != 0x5678 {
		t.Errorf("store wrong: %+v", b.At(1))
	}
	ld := b.At(2)
	if ld.Kind != trace.KindLoad || ld.DstReg != VarID(2).reg() || ld.DstValue != 7 {
		t.Errorf("SetVarLoad wrong: %+v", ld)
	}
}

func TestIPsAdvanceWithinBlocks(t *testing.T) {
	b := mustRecord(t, 1, 50, func(e *Emitter) { e.Compute(50) })
	for i := 1; i < b.Len(); i++ {
		if b.At(i).IP != b.At(i-1).IP+4 {
			t.Fatalf("filler IPs not sequential at %d: %#x -> %#x",
				i, b.At(i-1).IP, b.At(i).IP)
		}
	}
}

func TestTakenBranchRedirectsIP(t *testing.T) {
	b := mustRecord(t, 1, 10, func(e *Emitter) {
		e.Cond(1, true)
		e.Compute(1)
		e.Cond(2, false)
		e.Compute(1)
	})
	br := b.At(0)
	next := b.At(1)
	if next.IP != br.Target {
		t.Errorf("taken branch: next IP %#x != target %#x", next.IP, br.Target)
	}
	br2 := b.At(2)
	next2 := b.At(3)
	if next2.IP != br2.IP+4 {
		t.Errorf("not-taken branch: next IP %#x != fallthrough %#x", next2.IP, br2.IP+4)
	}
}
