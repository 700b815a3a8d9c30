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

func TestEmptyStreamsYieldNoBlocks(t *testing.T) {
	bs := bufferOf(nil).BlockStream(16)
	for i := 0; i < 2; i++ {
		if blk := bs.NextBlock(); len(blk) != 0 {
			t.Errorf("empty buffer produced a block on call %d", i)
		}
	}
}
