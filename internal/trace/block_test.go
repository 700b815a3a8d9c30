package trace

import "testing"

// drainBlocks enumerates bs into a flat slice.
func drainBlocks(bs BlockStream) []Inst {
	var out []Inst
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		out = append(out, blk...)
	}
	return out
}

func bufferOf(insts []Inst) *Buffer {
	b := NewBuffer(len(insts))
	for _, inst := range insts {
		b.Append(inst)
	}
	return b
}

func sameInsts(t *testing.T, got, want []Inst, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d instructions, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: instruction %d differs: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

func TestBufferServesNativeZeroCopyBlocks(t *testing.T) {
	insts := synthetic(100)
	b := bufferOf(insts)
	blk := b.BlockStream(0).NextBlock()
	if len(blk) != 100 {
		t.Fatalf("expected the whole buffer in one block, got %d", len(blk))
	}
	if &blk[0] != &b.insts[0] {
		t.Error("native block is not a zero-copy view of the buffer")
	}
	// Slice views serve blocks of the same backing array.
	sblk := b.Slice(10, 20).BlockStream(0).NextBlock()
	if len(sblk) != 10 || &sblk[0] != &b.insts[10] {
		t.Error("slice block is not a zero-copy view of the parent")
	}
}

func TestBufferBlockStreamSizes(t *testing.T) {
	insts := synthetic(100)
	b := bufferOf(insts)
	bs := b.BlockStream(32)
	var sizes []int
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		sizes = append(sizes, len(blk))
	}
	want := []int{32, 32, 32, 4}
	if len(sizes) != len(want) {
		t.Fatalf("block sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("block sizes %v, want %v", sizes, want)
		}
	}
	// Any block size enumerates exactly the recorded sequence, including
	// sizes that do not divide the trace length, sizes larger than the
	// trace, and n <= 0 (the default length).
	for _, n := range []int{1, 3, 7, 32, 256, 5000, 0} {
		sameInsts(t, drainBlocks(b.BlockStream(n)), insts, "sized blocks")
	}
}

func TestSliceView(t *testing.T) {
	insts := synthetic(100)
	b := bufferOf(insts)
	sameInsts(t, drainBlocks(b.Slice(10, 40).BlockStream(0)), insts[10:40], "slice")
	if b.Slice(-5, 1000).Len() != 100 {
		t.Error("Slice should clamp out-of-range bounds")
	}
	if b.Slice(60, 40).Len() != 0 {
		t.Error("inverted bounds should yield an empty view")
	}
	if b.Slice(0, -2).Len() != 0 || b.Slice(-9, -2).Len() != 0 {
		t.Error("negative hi should clamp to an empty view, not panic")
	}
	// Appending to the view must not corrupt the parent.
	v := b.Slice(0, 10)
	v.Append(Inst{IP: 0xdead})
	if b.At(10) == (Inst{IP: 0xdead}) {
		t.Error("append to slice view leaked into parent")
	}
}

func TestEmptyStreamsYieldNoBlocks(t *testing.T) {
	bs := bufferOf(nil).BlockStream(16)
	for i := 0; i < 2; i++ {
		if blk := bs.NextBlock(); len(blk) != 0 {
			t.Errorf("empty buffer produced a block on call %d", i)
		}
	}
	if blk := bufferOf(synthetic(5)).Slice(3, 3).BlockStream(0).NextBlock(); len(blk) != 0 {
		t.Error("empty slice view produced a block")
	}
}
