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
