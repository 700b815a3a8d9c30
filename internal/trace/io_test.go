package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"branchlab/internal/xrand"
)

func TestIORoundTrip(t *testing.T) {
	insts := synthetic(5000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range insts {
		if err := w.WriteInst(&insts[i]); err != nil {
			t.Fatalf("WriteInst: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	perInst := float64(buf.Len()) / float64(len(insts))
	if perInst > 12 {
		t.Errorf("encoding too large: %.1f bytes/inst", perInst)
	}

	r := NewReader(&buf)
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
	sameInsts(t, drainBlocks(r), insts, "round trip")
	if blk := r.NextBlock(); len(blk) != 0 {
		t.Error("reader should be exhausted")
	}
	if r.Err() != nil {
		t.Errorf("unexpected error: %v", r.Err())
	}
}

// TestIOBadRecordPastFirstBlock: a malformed record beyond the first
// decode batch stops the Reader there. Every record before it is served
// intact across the block boundary, later calls return empty blocks,
// and Err reports the typed cause.
func TestIOBadRecordPastFirstBlock(t *testing.T) {
	insts := synthetic(DefaultBlockLen + 500)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range insts {
		if err := w.WriteInst(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\x80\x00\x28\xff") // an ALU record reading register 40
	buf.WriteString("\x00\x08\x00\x08") // two well-formed ALU records after it

	r := NewReader(&buf)
	if first := r.NextBlock(); len(first) != DefaultBlockLen {
		t.Fatalf("first block has %d records, want %d", len(first), DefaultBlockLen)
	}
	rest := drainBlocks(r)
	sameInsts(t, rest, insts[DefaultBlockLen:], "records after the first block")
	for i := 0; i < 2; i++ {
		if blk := r.NextBlock(); len(blk) != 0 {
			t.Fatalf("reader served %d records past the bad one", len(blk))
		}
	}
	if !errors.Is(r.Err(), ErrBadRecord) {
		t.Errorf("err = %v, want ErrBadRecord", r.Err())
	}
}

func TestIOEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	if blk := r.NextBlock(); len(blk) != 0 {
		t.Error("empty trace yielded an instruction")
	}
	if r.Err() != nil {
		t.Errorf("clean empty trace reported error: %v", r.Err())
	}
}

func TestIOBadMagic(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("NOPE....")))
	if blk := r.NextBlock(); len(blk) != 0 {
		t.Fatal("bad magic accepted")
	}
	if !errors.Is(r.Err(), ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", r.Err())
	}
}

func TestIOTruncated(t *testing.T) {
	insts := synthetic(100)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range insts {
		if err := w.WriteInst(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Chop the stream mid-record (every record is at least two bytes, so
	// removing one byte always splits the final record); the reader must
	// stop with an error, not hang or fabricate instructions.
	data := buf.Bytes()[:buf.Len()-1]
	r := NewReader(bytes.NewReader(data))
	if n := len(drainBlocks(r)); n >= 100 {
		t.Errorf("read %d instructions from truncated trace", n)
	}
	if r.Err() == nil {
		t.Error("truncated trace should surface an error")
	}
}

func TestIOInvalidKindRejected(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	inst := Inst{Kind: Kind(99)}
	if err := w.WriteInst(&inst); err == nil {
		t.Error("invalid kind accepted by writer")
	}
}

func TestIOInvalidRegisterRejected(t *testing.T) {
	for _, inst := range []Inst{
		{Kind: KindALU, DstReg: NumRegs, SrcRegs: [2]uint8{NoReg, NoReg}},
		{Kind: KindALU, DstReg: NoReg, SrcRegs: [2]uint8{40, NoReg}},
		{Kind: KindALU, DstReg: NoReg, SrcRegs: [2]uint8{1, 0xFE}},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteInst(&inst); !errors.Is(err, ErrBadRecord) {
			t.Errorf("WriteInst(%+v) = %v, want ErrBadRecord", inst, err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != len(magic) {
			t.Errorf("refused instruction left %d record bytes", buf.Len()-len(magic))
		}
	}
}

// TestIOHostileRecordsRejected: records the Writer never produces —
// notably a register index past the register file, which used to crash
// the timing model with an index out of range — stop the Reader with
// ErrBadRecord instead of yielding the instruction.
func TestIOHostileRecordsRejected(t *testing.T) {
	for _, tc := range []struct{ name, data string }{
		{"src register 40", "BLT1\x80\x00\x28\xff"},
		{"dst register 32", "BLT1\x40\x00\x20\x00"},
		{"dst flag with NoReg", "BLT1\x40\x00\xff\x05"},
		{"mem operand on ALU", "BLT1\x20\x00\x07"},
		{"invalid kind", "BLT1\x0f\x00"},
		{"second src register", "BLT1\x80\x00\x01\x80"},
	} {
		r := NewReader(bytes.NewReader([]byte(tc.data)))
		if blk := r.NextBlock(); len(blk) != 0 {
			t.Errorf("%s: hostile record decoded as %+v", tc.name, blk[0])
			continue
		}
		if !errors.Is(r.Err(), ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", tc.name, r.Err())
		}
	}
}

func TestZigzag(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		return unzigzag(zigzag(v)) == v
	}, nil); err != nil {
		t.Error(err)
	}
}

// TestIORandomInstProperty round-trips randomly generated instructions.
func TestIORandomInstProperty(t *testing.T) {
	rng := xrand.New(1)
	gen := func() Inst {
		inst := Inst{
			IP:      rng.Uint64() % (1 << 40),
			Kind:    Kind(rng.Intn(int(kindCount))),
			DstReg:  NoReg,
			SrcRegs: [2]uint8{NoReg, NoReg},
		}
		if inst.Kind.IsBranch() {
			inst.Target = rng.Uint64() % (1 << 40)
			inst.Taken = rng.Intn(2) == 0
		}
		if inst.Kind == KindLoad || inst.Kind == KindStore {
			inst.MemAddr = rng.Uint64() % (1 << 44)
		}
		if rng.Intn(2) == 0 {
			inst.DstReg = uint8(rng.Intn(NumRegs))
			inst.DstValue = rng.Uint64()
		}
		if rng.Intn(2) == 0 {
			inst.SrcRegs[0] = uint8(rng.Intn(NumRegs))
		}
		if rng.Intn(3) == 0 {
			inst.SrcRegs[1] = uint8(rng.Intn(NumRegs))
		}
		return inst
	}
	const n = 2000
	insts := make([]Inst, n)
	for i := range insts {
		insts[i] = gen()
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range insts {
		if err := w.WriteInst(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := drainBlocks(NewReader(&buf))
	if len(got) != len(insts) {
		t.Fatalf("decoded %d of %d instructions", len(got), len(insts))
	}
	for i := range insts {
		want := insts[i]
		// Taken is only encoded for conditional branches; mem only for
		// loads/stores; target only for branches.
		if !want.Kind.IsBranch() {
			want.Target = 0
		}
		if want.Kind != KindLoad && want.Kind != KindStore {
			want.MemAddr = 0
		}
		if want.Kind != KindCondBr {
			// Direction is preserved bit-for-bit for all kinds in this
			// format (flagTaken), so no adjustment needed.
			_ = want
		}
		if want.DstReg == NoReg {
			want.DstValue = 0
		}
		if got[i] != want {
			t.Fatalf("inst %d: got %+v want %+v", i, got[i], want)
		}
	}
}

func BenchmarkWriter(b *testing.B) {
	insts := synthetic(10000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.WriteInst(&insts[i%len(insts)]); err != nil {
			b.Fatal(err)
		}
	}
}
