package program

import (
	"context"
	"errors"
	"testing"

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
// byte-identical to RecordCtx at any sliceLen, and every slice but the
// last is exactly sliceLen long with its own backing array.
func TestRecordSlicesByteIdentical(t *testing.T) {
	const budget = 50_000
	want := mustRecord(t, 42, budget, countingPayload)
	for _, sliceLen := range []uint64{0, 1, 1000, 4096, 7777, budget, budget * 2} {
		arrs := mustSlices(t, 42, budget, countingPayload, sliceLen)
		label := "sliceLen=" + itoa(int(sliceLen))
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

// Early-ending payloads must trim trailing slices the same way RecordCtx
// trims its buffer, whether the payload ends inside a slice or on a
// slice boundary.
func TestRecordSlicesEarlyReturn(t *testing.T) {
	const budget = 60_000
	want := mustRecord(t, 9, budget, earlyPayload)
	if uint64(want.Len()) >= budget {
		t.Fatal("test payload should end before the budget")
	}
	for _, sliceLen := range []uint64{1000, uint64(want.Len()), 7777} {
		arrs := mustSlices(t, 9, budget, earlyPayload, sliceLen)
		assertSameBuffer(t, joinSlices(arrs), want, "early/sliceLen="+itoa(int(sliceLen)))
	}
}

func TestRecordSlicesZeroBudget(t *testing.T) {
	if arrs := mustSlices(t, 1, 0, countingPayload, 100); len(arrs) != 0 {
		t.Fatalf("zero budget recorded %d slices", len(arrs))
	}
}

// sinkLog records a SliceSink's calls per slice.
type sinkLog struct {
	chunks map[int][][]trace.Inst
	lasts  map[int]int // number of last calls per slice
	late   bool        // a call for a slice after its last
}

func newSinkLog() *sinkLog {
	return &sinkLog{chunks: make(map[int][][]trace.Inst), lasts: make(map[int]int)}
}

func (l *sinkLog) sink(slice int, chunk []trace.Inst, last bool) {
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
// any slice length, and for a payload that ends early.
func TestRecordSlicesSinkStreamsEveryWindow(t *testing.T) {
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
		label := "budget=" + itoa(int(tc.budget)) + "/slice=" + itoa(int(tc.slice))
		log := newSinkLog()
		arrs, err := RecordSlicesCtx(context.Background(), 5, tc.budget, tc.payload, tc.slice, log.sink)
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

// Each chunk end is a byte-safe cancellation point: a context cancelled
// inside the sink unwinds the recording before the next chunk.
func TestRecordSlicesCancelAtChunkEnd(t *testing.T) {
	defer leakCheck(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	out, err := RecordSlicesCtx(ctx, 1, 500_000, countingPayload, 250_000,
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
