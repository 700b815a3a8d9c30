package program

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// uvarints serializes vs the way AppendCheckpoints writes its fields.
func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// oneCheckpoint serializes a one-checkpoint list: At, Rng and CurIP,
// then tail (Scratch and the length-prefixed Callers and Payload).
func oneCheckpoint(tail ...uint64) []byte {
	return append(uvarints(1, 100, 1, 2, 3, 4, 0x400), uvarints(tail...)...)
}

// TestDecodeCheckpointsHostileInputFailsTyped: every malformed list is
// rejected with ErrBadCheckpointData. A scratch register past r7 would
// become a destination register the timing model indexes out of range.
func TestDecodeCheckpointsHostileInputFailsTyped(t *testing.T) {
	if _, _, err := DecodeCheckpoints(oneCheckpoint(scratchRegs-1, 0, 0)); err != nil {
		t.Fatalf("scratch r7 rejected: %v", err)
	}
	for name, in := range map[string][]byte{
		"empty":                nil,
		"scratch r8":           oneCheckpoint(scratchRegs, 0, 0),
		"scratch 255":          oneCheckpoint(255, 0, 0),
		"count past the bytes": uvarints(2, 100, 1, 2, 3, 4, 0x400, 0, 0, 0),
		"huge count":           uvarints(1 << 40),
		"callers past bytes":   oneCheckpoint(0, 3, 7, 7),
		"huge caller count":    oneCheckpoint(0, 1<<20),
		"payload past bytes":   oneCheckpoint(0, 0, 2, 9),
		"truncated payload":    oneCheckpoint(0, 0, 1),
		"truncated varint":     append(oneCheckpoint(), 0x80),
	} {
		if _, _, err := DecodeCheckpoints(in); !errors.Is(err, ErrBadCheckpointData) {
			t.Errorf("%s: err = %v, want ErrBadCheckpointData", name, err)
		}
	}
}

// TestDecodeCheckpointsAllocationBoundedByInput feeds short blobs whose
// length prefixes claim a million elements: the decoder must fail
// having allocated in proportion to the bytes present.
func TestDecodeCheckpointsAllocationBoundedByInput(t *testing.T) {
	for name, in := range map[string][]byte{
		"callers": oneCheckpoint(0, 1<<20),
		"payload": oneCheckpoint(0, 0, 1<<20),
		"count":   uvarints(1<<20, 1),
	} {
		got := allocated(func() {
			if _, _, err := DecodeCheckpoints(in); !errors.Is(err, ErrBadCheckpointData) {
				t.Fatalf("%s: err = %v, want ErrBadCheckpointData", name, err)
			}
		})
		if got > 4096 {
			t.Errorf("%s: %d-byte input allocated %d bytes", name, len(in), got)
		}
	}
}

// allocated returns the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeCheckpoints: arbitrary bytes never panic, every failure is
// typed, allocations stay within a small multiple of the input (plus
// slack for the fuzzing engine's own goroutines), and an
// accepted list holds only emitter-range scratch registers and survives
// a re-encode and decode unchanged. (Its re-encoding may be shorter
// than the bytes consumed: Uvarint accepts padded encodings.)
func FuzzDecodeCheckpoints(f *testing.F) {
	f.Add(AppendCheckpoints(nil, []Checkpoint{
		{At: 100, Rng: [4]uint64{1, 2, 3, 4}, CurIP: 0x400, Scratch: 7, Callers: []uint64{0x480}, Payload: []uint64{9, 1 << 40}},
		{At: 200, Rng: [4]uint64{5, 6, 7, 8}, CurIP: 0x440},
	}))
	f.Add(uvarints(0))
	f.Add(oneCheckpoint(scratchRegs, 0, 0))
	f.Add(oneCheckpoint(0, 1<<20))
	f.Fuzz(func(t *testing.T, in []byte) {
		var cks []Checkpoint
		var n int
		var err error
		if got := allocated(func() { cks, n, err = DecodeCheckpoints(in) }); got > 16*uint64(len(in))+1<<16 {
			t.Fatalf("%d-byte input allocated %d bytes", len(in), got)
		}
		if err != nil {
			if !errors.Is(err, ErrBadCheckpointData) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for i := range cks {
			if cks[i].Scratch >= scratchRegs {
				t.Fatalf("checkpoint %d: scratch register %d accepted", i, cks[i].Scratch)
			}
		}
		enc := AppendCheckpoints(nil, cks)
		again, m, err := DecodeCheckpoints(enc)
		if err != nil || m != len(enc) || n > len(in) || !bytes.Equal(AppendCheckpoints(nil, again), enc) {
			t.Fatalf("accepted list does not round-trip (err %v)", err)
		}
	})
}
