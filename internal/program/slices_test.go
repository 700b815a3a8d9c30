package program

import (
	"context"
	"errors"
	"sync"
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

// sinkLog records a SliceSink's calls per slice; safe for the
// concurrent calls of a sharded recording.
type sinkLog struct {
	mu     sync.Mutex
	chunks map[int][][]trace.Inst
	lasts  map[int]int // number of last calls per slice
	late   bool        // a call for a slice after its last
}

func newSinkLog() *sinkLog {
	return &sinkLog{chunks: make(map[int][][]trace.Inst), lasts: make(map[int]int)}
}

func (l *sinkLog) sink(slice int, chunk []trace.Inst, last bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lasts[slice] > 0 {
		l.late = true
	}
	l.chunks[slice] = append(l.chunks[slice], chunk)
	if last {
		l.lasts[slice]++
	}
}

// A sink sees every returned window exactly: in order, in ChunkInsts
// pieces that alias the returned array, closed by one last call — at
// any slice length and shard count, and for a payload that ends early.
func TestRecordSlicesSinkStreamsEveryWindow(t *testing.T) {
	pool := engine.New(3)
	for _, tc := range []struct {
		payload Payload
		budget  uint64
		slice   uint64
	}{
		{countingPayload, 200_000, 0},
		{countingPayload, 200_000, 50_000},
		{countingPayload, 200_000, 2 * ChunkInsts},
		{countingPayload, 200_000, 100_000},
		{earlyPayload, 60_000, 5_000},
		{earlyPayload, 60_000, 7_777},
	} {
		for _, shards := range []int{1, 3} {
			label := "budget=" + itoa(int(tc.budget)) + "/slice=" + itoa(int(tc.slice)) + "/shards=" + itoa(shards)
			log := newSinkLog()
			arrs, _, err := RecordSlicesCtx(context.Background(), 5, tc.budget, tc.payload, tc.slice, pool, shards, 0, log.sink)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			assertSameBuffer(t, joinSlices(arrs), mustRecord(t, 5, tc.budget, tc.payload), label)
			if log.late {
				t.Fatalf("%s: the sink was called for a slice after its last chunk", label)
			}
			if len(log.chunks) != len(arrs) {
				t.Fatalf("%s: the sink saw %d slices, the recording returned %d", label, len(log.chunks), len(arrs))
			}
			for si, a := range arrs {
				chunks := log.chunks[si]
				if log.lasts[si] != 1 {
					t.Fatalf("%s: slice %d closed %d times, want once", label, si, log.lasts[si])
				}
				off := 0
				for ci, c := range chunks {
					if ci < len(chunks)-1 && len(c) != ChunkInsts {
						t.Fatalf("%s: slice %d chunk %d has %d insts, want %d", label, si, ci, len(c), ChunkInsts)
					}
					if len(c) > 0 && &c[0] != &a[off] {
						t.Fatalf("%s: slice %d chunk %d does not alias the returned window", label, si, ci)
					}
					off += len(c)
				}
				if off != len(a) {
					t.Fatalf("%s: slice %d streamed %d insts, returned %d", label, si, off, len(a))
				}
			}
		}
	}
}

// Each chunk end is a byte-safe cancellation point: a context cancelled
// inside the sink unwinds the recording before the next chunk.
func TestRecordSlicesCancelAtChunkEnd(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	out, _, err := RecordSlicesCtx(ctx, 1, 500_000, countingPayload, 250_000, nil, 1, 0,
		func(int, []trace.Inst, bool) {
			calls++
			cancel()
		})
	if out != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("RecordSlicesCtx = %d slices, %v; want a typed cancellation and no slices", len(out), err)
	}
	if calls != 1 {
		t.Fatalf("the sink was called %d times after the cancel, want the recording to stop at the first chunk end", calls-1)
	}
}
