package tracestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
)

// seal appends the checksum trailer that decodeHeader verifies first,
// so a fuzzed body reaches the field decoder instead of stopping at the
// checksum.
func seal(body []byte) []byte {
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], checksum(body))
	return append(append([]byte(nil), body...), sum[:]...)
}

// TestChecksumIsCRC32C pins the integrity sum to CRC-32C through its
// standard check value, so stored files stay readable across builds of
// the same FormatVersion.
func TestChecksumIsCRC32C(t *testing.T) {
	if got := checksum([]byte("123456789")); got != 0xe3069283 {
		t.Fatalf("checksum(\"123456789\") = %#x, want the CRC-32C check value 0xe3069283", got)
	}
}

// allocated reports the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// headerSeeds returns FuzzStoreHeader's seed corpus: header bodies
// without their checksum trailer (see seal). The first two are the
// headers the store writes for testKey; the others must reject — a
// header of a different key, and the format-2 header of testKey, whose
// identity echo carried a checkpoint spacing and whose extent was
// followed by a serialized (here empty) checkpoint list.
func headerSeeds() [][]byte {
	k := testKey()
	body := func(b []byte) []byte { return b[:len(b)-8] }
	v2 := append([]byte(nil), headerMagic[:]...)
	v2 = binary.AppendUvarint(v2, 2)
	v2 = binary.AppendUvarint(v2, layoutSig)
	v2 = appendKey(v2, k)
	v2 = binary.AppendUvarint(v2, k.SliceLen) // checkpoint spacing
	v2 = binary.AppendUvarint(v2, k.Budget)   // extent
	v2 = binary.AppendUvarint(v2, 0)          // checkpoint count
	return [][]byte{
		body(encodeHeader(k, k.Budget)),
		body(encodeHeader(k, 12345)),
		body(encodeHeader(Key{Name: "other", Budget: 7}, 7)),
		v2,
	}
}

// TestHeaderSeedsDecode pins FuzzStoreHeader's accept path: the store's
// own headers decode to their extent, so the fuzz target's round-trip
// branch is reachable, and each deliberately wrong seed rejects typed.
// A format-2 header also rejects once its version field says 3: the
// extra spacing field and list leave trailing bytes.
func TestHeaderSeedsDecode(t *testing.T) {
	k := testKey()
	seeds := headerSeeds()
	for i, want := range []uint64{k.Budget, 12345} {
		if total, err := decodeHeader("header", k, seal(seeds[i])); err != nil || total != want {
			t.Fatalf("seed %d: decoded (%d, %v), want extent %d", i, total, err, want)
		}
	}
	for i, in := range seeds[2:] {
		if _, err := decodeHeader("header", k, seal(in)); !errors.Is(err, ErrReject) {
			t.Fatalf("seed %d: err = %v, want ErrReject", i+2, err)
		}
	}
	relabeled := append([]byte(nil), seeds[3]...)
	relabeled[4] = FormatVersion
	if _, err := decodeHeader("header", k, seal(relabeled)); !errors.Is(err, ErrReject) {
		t.Fatalf("format-2 body under version %d: err = %v, want ErrReject", FormatVersion, err)
	}
}

// FuzzStoreHeader: a header body with a valid trailer either rejects
// with a typed ErrReject or decodes to an extent within the key's
// budget, and re-encoding that extent gives a header decoding to the
// same value. Decoding never panics, and allocation follows the input
// size (plus slack for the fuzzing engine's own goroutines), not the
// lengths the header claims.
func FuzzStoreHeader(f *testing.F) {
	k := testKey()
	for _, seed := range headerSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var total uint64
		var err error
		file := seal(in)
		if got := allocated(func() { total, err = decodeHeader("header", k, file) }); got > 16*uint64(len(file))+1<<16 {
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
		if again, err := decodeHeader("header", k, encodeHeader(k, total)); err != nil || again != total {
			t.Fatalf("accepted header does not round-trip (err %v)", err)
		}
	})
}

// sealSlice re-seals a slice file whose 8-byte header trailer was cut
// out: body holds header bytes [0,56) followed by the payload, and the
// checksum of the first 56 bytes goes back in between. A body too short
// to hold those bytes passes through as a truncated file.
func sealSlice(body []byte) []byte {
	if len(body) < sliceHeaderSize-8 {
		return body
	}
	file := seal(body[:sliceHeaderSize-8])
	return append(file, body[sliceHeaderSize-8:]...)
}

// fuzzSliceIdx and fuzzSliceCount are the slice index and instruction
// count FuzzSliceFile verifies its inputs against.
const fuzzSliceIdx, fuzzSliceCount = 1, 3

// sliceSeeds returns FuzzSliceFile's seed corpus in its cut form (see
// sealSlice). The first seed is the canonical file the store writes for
// slice fuzzSliceIdx of testKey; every other seed must reject.
func sliceSeeds() [][]byte {
	keyHash := testKey().hash64()
	payload := payloadBytes(testInsts(fuzzSliceCount, 5))
	short := payload[:(fuzzSliceCount-1)*instBytes]
	cut := func(h [sliceHeaderSize]byte, payload []byte) []byte {
		return append(append([]byte(nil), h[:sliceHeaderSize-8]...), payload...)
	}
	return [][]byte{
		cut(encodeSliceHeader(keyHash, fuzzSliceIdx, fuzzSliceCount, checksum(payload)), payload),
		cut(encodeSliceHeader(keyHash, fuzzSliceIdx+1, fuzzSliceCount, checksum(payload)), payload),
		cut(encodeSliceHeader(keyHash, fuzzSliceIdx, fuzzSliceCount-1, checksum(short)), short),
		cut(encodeSliceHeader(keyHash^1, fuzzSliceIdx, fuzzSliceCount, checksum(payload)), payload),
		[]byte("BLSS"),
	}
}

// TestSliceSeedsVerify pins FuzzSliceFile's accept path: the canonical
// seed verifies, so the fuzz target's round-trip branch is reachable,
// and each deliberately wrong seed rejects typed.
func TestSliceSeedsVerify(t *testing.T) {
	keyHash := testKey().hash64()
	for i, in := range sliceSeeds() {
		err := verifySliceFile("slice", sealSlice(in), keyHash, fuzzSliceIdx, fuzzSliceCount)
		if i == 0 && err != nil {
			t.Fatalf("canonical seed rejected: %v", err)
		}
		if i > 0 && !errors.Is(err, ErrReject) {
			t.Fatalf("seed %d: err = %v, want ErrReject", i, err)
		}
	}
}

// FuzzSliceFile: a slice file with a valid header trailer either
// rejects with a typed ErrReject or verifies, and verifies only when it
// is byte for byte the file the store writes for that slice: the
// canonical header over a payload of exactly the wanted instruction
// count. Verification never panics.
func FuzzSliceFile(f *testing.F) {
	keyHash := testKey().hash64()
	for _, seed := range sliceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		file := sealSlice(in)
		err := verifySliceFile("slice", file, keyHash, fuzzSliceIdx, fuzzSliceCount)
		if err != nil {
			if !errors.Is(err, ErrReject) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		body := file[sliceHeaderSize:]
		h := encodeSliceHeader(keyHash, fuzzSliceIdx, fuzzSliceCount, checksum(body))
		if !bytes.Equal(file[:sliceHeaderSize], h[:]) || uint64(len(body)) != fuzzSliceCount*instBytes {
			t.Fatalf("verified a %d-byte slice file that is not the canonical encoding", len(file))
		}
		if got := payloadInsts(body, fuzzSliceCount); len(got) != fuzzSliceCount {
			t.Fatalf("verified payload decodes to %d instructions, want %d", len(got), fuzzSliceCount)
		}
	})
}
