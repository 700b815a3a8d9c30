package trace

import (
	"testing"
)

func TestKindString(t *testing.T) {
	if KindALU.String() != "alu" || KindCondBr.String() != "condbr" {
		t.Errorf("unexpected kind names: %v %v", KindALU, KindCondBr)
	}
	if Kind(200).String() == "" {
		t.Error("out-of-range kind should still render")
	}
}

func TestKindClassification(t *testing.T) {
	branches := []Kind{KindCondBr, KindJump, KindIndirect, KindCall, KindRet}
	for _, k := range branches {
		if !k.IsBranch() {
			t.Errorf("%v should be a branch", k)
		}
	}
	nonBranches := []Kind{KindALU, KindMul, KindDiv, KindFP, KindLoad, KindStore, KindNop}
	for _, k := range nonBranches {
		if k.IsBranch() {
			t.Errorf("%v should not be a branch", k)
		}
	}
	if !KindCondBr.IsCond() || KindJump.IsCond() {
		t.Error("IsCond misclassifies")
	}
}

func TestInstReadsWrites(t *testing.T) {
	i := Inst{DstReg: 3, SrcRegs: [2]uint8{1, NoReg}}
	if !i.Reads(1) || i.Reads(2) || i.Reads(NoReg) {
		t.Error("Reads misclassifies")
	}
	if !i.Writes(3) || i.Writes(1) || i.Writes(NoReg) {
		t.Error("Writes misclassifies")
	}
}

func synthetic(n int) []Inst {
	insts := make([]Inst, 0, n)
	ip := uint64(0x400000)
	for j := 0; j < n; j++ {
		inst := Inst{IP: ip, Kind: KindALU, DstReg: NoReg, SrcRegs: [2]uint8{NoReg, NoReg}}
		switch j % 5 {
		case 0:
			inst.Kind = KindCondBr
			inst.Taken = j%2 == 0
			inst.Target = ip + 0x40
			inst.SrcRegs[0] = uint8(j % 30)
		case 1:
			inst.Kind = KindLoad
			inst.MemAddr = uint64(j) * 64
			inst.DstReg = uint8(j % 30)
		case 2:
			inst.Kind = KindStore
			inst.MemAddr = uint64(j) * 8
			inst.SrcRegs[0] = uint8(j % 30)
		case 3:
			inst.DstReg = uint8(j % 30)
			inst.DstValue = uint64(j * 31)
			inst.SrcRegs[0] = uint8((j + 1) % 30)
			inst.SrcRegs[1] = uint8((j + 2) % 30)
		}
		insts = append(insts, inst)
		ip += 4
	}
	return insts
}

func TestBufferRoundTrip(t *testing.T) {
	insts := synthetic(1000)
	b := NewBuffer(0)
	for _, inst := range insts {
		b.Append(inst)
	}
	if b.Len() != len(insts) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(insts))
	}
	bs := b.BlockStream(64)
	sameInsts(t, drainBlocks(bs), insts, "round trip")
	if blk := bs.NextBlock(); len(blk) != 0 {
		t.Error("stream should stay exhausted")
	}
	// Two streams over one buffer are independent.
	s1, s2 := b.BlockStream(10), b.BlockStream(10)
	s1.NextBlock()
	s1.NextBlock()
	if blk := s2.NextBlock(); blk[0] != insts[0] {
		t.Error("second stream not independent")
	}
}

func TestRecord(t *testing.T) {
	b := NewBuffer(0)
	for _, inst := range synthetic(50) {
		b.Append(inst)
	}
	copied := RecordSized(b.BlockStream(7), 0)
	if copied.Len() != 50 {
		t.Fatalf("RecordSized copied %d, want 50", copied.Len())
	}
	for i := 0; i < 50; i++ {
		if copied.At(i) != b.At(i) {
			t.Fatalf("inst %d differs after RecordSized", i)
		}
	}
	// The recording owns its storage: it does not alias the source.
	copied.insts[0].IP++
	if copied.At(0) == b.At(0) {
		t.Error("RecordSized aliased the source blocks")
	}
}
