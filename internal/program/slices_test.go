package program

import (
	"testing"

	"branchlab/internal/engine"
	"branchlab/internal/trace"
)

// joinSlices flattens per-slice arrays into one buffer for comparison.
func joinSlices(arrs [][]trace.Inst) *trace.Buffer {
	var all []trace.Inst
	for _, a := range arrs {
		all = append(all, a...)
	}
	return trace.FromSlice(all)
}

// Slice-granular recording's whole contract: concatenated slices are
// byte-identical to RecordCtx at any (sliceLen, shards) combination, and
// every slice but the last is exactly sliceLen long with its own
// backing array.
func TestRecordSlicesByteIdentical(t *testing.T) {
	const budget = 50_000
	want := mustRecord(t, 42, budget, countingPayload)
	pool := engine.New(4)
	for _, sliceLen := range []uint64{0, 1000, 4096, 7777, budget, budget * 2} {
		for _, shards := range []int{1, 2, 3, 7} {
			arrs, _ := mustSlices(t, 42, budget, countingPayload, sliceLen, pool, shards, 0)
			label := "sliceLen=" + itoa(int(sliceLen)) + "/shards=" + itoa(shards)
			assertSameBuffer(t, joinSlices(arrs), want, label)
			eff := sliceLen
			if eff == 0 || eff > budget {
				eff = budget
			}
			for i, a := range arrs {
				if i < len(arrs)-1 && uint64(len(a)) != eff {
					t.Fatalf("%s: slice %d has %d insts, want %d", label, i, len(a), eff)
				}
				if uint64(cap(a)) > eff {
					t.Fatalf("%s: slice %d capacity %d exceeds slice length %d (not independently owned)",
						label, i, cap(a), eff)
				}
			}
		}
	}
	// nil pool selects a default pool.
	arrs, _ := mustSlices(t, 42, budget, countingPayload, 4096, nil, 3, 0)
	assertSameBuffer(t, joinSlices(arrs), want, "nil pool")
	// More shards than slices caps at one slice per shard; one-instruction
	// slices make that one instruction per shard (kept tiny: each shard
	// replays its prefix).
	arrs, _ = mustSlices(t, 42, 100, countingPayload, 1, pool, 137, 0)
	assertSameBuffer(t, joinSlices(arrs), mustRecord(t, 42, 100, countingPayload), "shards>budget")
}

// Early-ending payloads must trim trailing slices the same way RecordCtx
// trims its buffer, at any shard count.
func TestRecordSlicesEarlyReturn(t *testing.T) {
	const budget = 60_000
	want := mustRecord(t, 9, budget, earlyPayload)
	if uint64(want.Len()) >= budget {
		t.Fatal("test payload should end before the budget")
	}
	pool := engine.New(3)
	for _, shards := range []int{1, 2, 4, 9} {
		arrs, _ := mustSlices(t, 9, budget, earlyPayload, 1000, pool, shards, 0)
		assertSameBuffer(t, joinSlices(arrs), want, "early/shards="+itoa(shards))
	}
}

func TestRecordSlicesZeroBudget(t *testing.T) {
	if arrs, _ := mustSlices(t, 1, 0, countingPayload, 100, engine.New(2), 4, 0); len(arrs) != 0 {
		t.Fatalf("zero budget recorded %d slices", len(arrs))
	}
}

// RecordRangeFrom with a nil checkpoint is the cache's skim refill:
// any [lo, hi) window must reproduce exactly that range of the full
// recording.
func TestRecordRangeByteIdentical(t *testing.T) {
	const budget = 30_000
	want := mustRecord(t, 7, budget, countingPayload)
	for _, r := range [][2]uint64{
		{0, budget}, {0, 1}, {1, 2}, {12345, 23456}, {budget - 1, budget},
		{20_000, budget + 500}, // hi clamps to the budget
	} {
		got, err := RecordRangeFrom(7, budget, countingPayload, nil, r[0], r[1])
		if err != nil {
			t.Fatalf("range [%d,%d): %v", r[0], r[1], err)
		}
		hi := r[1]
		if hi > budget {
			hi = budget
		}
		if uint64(len(got)) != hi-r[0] {
			t.Fatalf("range [%d,%d): got %d insts, want %d", r[0], r[1], len(got), hi-r[0])
		}
		for i, inst := range got {
			if inst != want.At(int(r[0])+i) {
				t.Fatalf("range [%d,%d): instruction %d differs", r[0], r[1], i)
			}
		}
	}
	if got, err := RecordRangeFrom(7, budget, countingPayload, nil, 10, 10); got != nil || err != nil {
		t.Fatalf("empty range returned %d insts, err %v", len(got), err)
	}
}
