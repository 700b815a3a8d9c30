package xrand

import "testing"

func TestJumpDeterministicAndDisjoint(t *testing.T) {
	// Jump is deterministic: two generators jumped from the same seed
	// agree exactly.
	a, b := New(11), New(11)
	a.Jump()
	b.Jump()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("jumped generators diverge")
		}
	}
	// A jumped stream does not collide with the base stream's prefix:
	// the jump advances by 2^128 steps, so the next draws must differ
	// from the original sequence.
	base := New(11)
	jumped := New(11)
	jumped.Jump()
	same := 0
	for i := 0; i < 64; i++ {
		if base.Uint64() == jumped.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("jumped stream repeats the base stream (%d/64 draws equal)", same)
	}
}

func TestJumpedStreamsIndependentPerSlice(t *testing.T) {
	// The per-slice reseeding pattern: slice k draws from New(seed)
	// jumped k times. Streams must be deterministic per slice index and
	// differ across slice indices.
	draw := func(jumps int) []uint64 {
		r := New(99)
		for j := 0; j < jumps; j++ {
			r.Jump()
		}
		out := make([]uint64, 16)
		for i := range out {
			out[i] = r.Uint64()
		}
		return out
	}
	s1a, s1b, s2 := draw(1), draw(1), draw(2)
	for i := range s1a {
		if s1a[i] != s1b[i] {
			t.Fatal("slice stream not reproducible")
		}
	}
	diff := false
	for i := range s1a {
		if s1a[i] != s2[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("distinct slice indices produced identical streams")
	}
}
