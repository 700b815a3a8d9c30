package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"branchlab/internal/program"
)

// seal appends the FNV-1a trailer that decodeHeader verifies first, so
// a fuzzed body reaches the field decoder instead of stopping at the
// checksum.
func seal(body []byte) []byte {
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], fnv1a(body))
	return append(append([]byte(nil), body...), sum[:]...)
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzStoreHeader: a header body with a valid trailer either rejects
// with a typed ErrReject or decodes to an extent within the key's
// budget and a checkpoint list that re-encodes to a header decoding to
// the same values. Decoding never panics, and allocation follows the
// input size (plus slack for the fuzzing engine's own goroutines), not
// the lengths the header claims.
func FuzzStoreHeader(f *testing.F) {
	k := testKey()
	body := func(b []byte) []byte { return b[:len(b)-8] }
	f.Add(body(encodeHeader(k, k.Budget, testCkpts())))
	f.Add(body(encodeHeader(k, 12345, nil)))
	f.Add(body(encodeHeader(Key{Name: "other", Budget: 7}, 7, nil)))
	f.Add([]byte("BLSH"))
	f.Fuzz(func(t *testing.T, in []byte) {
		var total uint64
		var ckpts []program.Checkpoint
		var err error
		file := seal(in)
		if got := allocated(func() { total, ckpts, err = decodeHeader("header", k, file) }); got > 16*uint64(len(file))+1<<16 {
			t.Fatalf("%d-byte header allocated %d bytes", len(file), got)
		}
		if err != nil {
			if !errors.Is(err, ErrReject) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if total > k.Budget {
			t.Fatalf("accepted extent %d beyond budget %d", total, k.Budget)
		}
		enc := encodeHeader(k, total, ckpts)
		again, cks, err := decodeHeader("header", k, enc)
		if err != nil || again != total ||
			!bytes.Equal(program.AppendCheckpoints(nil, cks), program.AppendCheckpoints(nil, ckpts)) {
			t.Fatalf("accepted header does not round-trip (err %v)", err)
		}
	})
}

// sealSlice re-seals a slice file whose 8-byte header trailer was cut
// out: body holds header bytes [0,56) followed by the payload, and the
// FNV-1a of the first 56 bytes goes back in between. A body too short
// to hold those bytes passes through as a truncated file.
func sealSlice(body []byte) []byte {
	if len(body) < sliceHeaderSize-8 {
		return body
	}
	file := seal(body[:sliceHeaderSize-8])
	return append(file, body[sliceHeaderSize-8:]...)
}

// FuzzSliceFile: a slice file with a valid header trailer either
// rejects with a typed ErrReject or verifies, and verifies only when it
// is byte for byte the file the store writes for that slice: the
// canonical header over a payload of exactly the wanted instruction
// count. Verification never panics.
func FuzzSliceFile(f *testing.F) {
	const idx, wantCount = 1, 3
	keyHash := testKey().hash64()
	payload := payloadBytes(testInsts(wantCount, 5))
	cut := func(h [sliceHeaderSize]byte, payload []byte) []byte {
		return append(append([]byte(nil), h[:sliceHeaderSize-8]...), payload...)
	}
	f.Add(cut(encodeSliceHeader(keyHash, idx, wantCount, fnv1a(payload)), payload))
	f.Add(cut(encodeSliceHeader(keyHash, idx+1, wantCount, fnv1a(payload)), payload))
	f.Add(cut(encodeSliceHeader(keyHash, idx, wantCount-1, fnv1a(payload[:2*instBytes])), payload[:2*instBytes]))
	f.Add(cut(encodeSliceHeader(keyHash^1, idx, wantCount, fnv1a(payload)), payload))
	f.Add([]byte("BLSS"))
	f.Fuzz(func(t *testing.T, in []byte) {
		file := sealSlice(in)
		err := verifySliceFile("slice", file, keyHash, idx, wantCount)
		if err != nil {
			if !errors.Is(err, ErrReject) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		body := file[sliceHeaderSize:]
		h := encodeSliceHeader(keyHash, idx, wantCount, fnv1a(body))
		if !bytes.Equal(file[:sliceHeaderSize], h[:]) || uint64(len(body)) != wantCount*instBytes {
			t.Fatalf("verified a %d-byte slice file that is not the canonical encoding", len(file))
		}
		if got := payloadInsts(body, wantCount); len(got) != wantCount {
			t.Fatalf("verified payload decodes to %d instructions, want %d", len(got), wantCount)
		}
	})
}
