// On-disk format of the persistent trace store (DESIGN.md §11).
//
// A stored trace is one directory named by the content hash of its Key
// (workload name, input, budget, slice geometry, format version,
// machine layout), holding:
//
//	header        the trace header: identity echo, recorded extent,
//	              trailing checksum
//	s<idx>        one file per slice: fixed 64-byte checksummed header
//	              followed by the raw instruction array
//
// The store persists instruction bytes and their extent, nothing else:
// a trace restored from disk that loses a slice file is re-recorded.
//
// Slice payloads are the in-memory representation of []trace.Inst
// dumped verbatim, which is what makes mmap serving zero-copy: the
// mapped payload *is* the slice array, no decode step. That makes the
// format machine-specific (endianness, field layout, padding), so every
// file carries a layout signature — the FNV-1a of a fixed sentinel
// Inst's raw bytes — and a file written by an incompatible machine or
// an older format version is rejected exactly like a corrupt one:
// typed error, fall back to re-recording. Wrong bytes are never served.
//
// Integrity: every slice payload, every slice header and the header
// file carry a CRC-32C (Castagnoli) sum, zero-extended into a u64
// field. CRC-32C catches every single-bit flip and every burst of up to
// 32 bits, and the hardware instruction computes it at memory
// bandwidth, so verifying a stored trace costs far less than recording
// it. A torn write, a truncated file, or a flipped bit fails
// verification; the reader deletes the file and reports a typed reject
// so the caller re-records the content (byte-identically, since
// recording is deterministic). Names — the content address and the
// layout signature — stay 64-bit FNV-1a: they need the wide namespace,
// not burst detection, and their inputs are a few dozen bytes.
package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"unsafe"

	"branchlab/internal/trace"
)

// FormatVersion is the on-disk format version. It participates in the
// content hash, so bumping it makes every existing store directory
// invisible (a cold miss) rather than a decode hazard; it is also
// echoed inside every file and checked on read, so a file renamed
// across versions still rejects cleanly.
const FormatVersion = 3

// Magic numbers of the two file kinds.
var (
	headerMagic = [4]byte{'B', 'L', 'S', 'H'}
	sliceMagic  = [4]byte{'B', 'L', 'S', 'S'}
)

// sliceHeaderSize is the fixed slice-file header length. The payload
// starts at this offset; it is a multiple of the instruction alignment,
// and mmap bases are page-aligned, so the mapped payload is always
// properly aligned for the zero-copy []trace.Inst cast.
const sliceHeaderSize = 64

// instBytes is the on-disk (== in-memory) size of one instruction.
const instBytes = uint64(unsafe.Sizeof(trace.Inst{}))

// Typed reject errors. ErrNotFound is the clean miss (no file);
// everything else wraps ErrReject — the "this file cannot be trusted"
// class that deletes the file and falls back to re-recording.
var (
	// ErrNotFound reports a clean miss: the store has no file for the
	// requested content.
	ErrNotFound = errors.New("tracestore: not in store")
	// ErrReject is the sentinel wrapped by every integrity failure:
	// bad magic, version or layout mismatch, truncation, checksum
	// failure, or an identity echo that does not match the request.
	// The offending file is removed; the caller re-records.
	ErrReject = errors.New("tracestore: stored file rejected")
)

// castagnoli returns the CRC-32C table; crc32 selects the SSE4.2 /
// ARMv8 CRC instructions for it where the CPU has them. The table is
// built on first use rather than at package init: building it
// precomputes the instruction path's shift tables (about a quarter of a
// millisecond), which a process that never touches a store should not
// pay at start-up.
var castagnoli = sync.OnceValue(func() *crc32.Table {
	return crc32.MakeTable(crc32.Castagnoli)
})

// checksum is the integrity sum of every stored byte range: CRC-32C,
// zero-extended into the format's u64 sum fields. It guards against
// corruption, not tampering — the store directory is as trusted as the
// binary.
func checksum(b []byte) uint64 {
	return uint64(crc32.Checksum(b, castagnoli()))
}

// fnv1a is the 64-bit name hash behind the content address and the
// layout signature.
func fnv1a(b []byte) uint64 {
	h := uint64(1469598103934665603)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

// layoutSig fingerprints this machine's in-memory trace.Inst layout:
// the FNV-1a of a sentinel instruction's raw bytes, folded with the
// struct size. Two builds agree on the signature exactly when a dumped
// instruction array from one is readable by the other.
var layoutSig = func() uint64 {
	var probe trace.Inst // zeroed whole, padding included
	probe.IP = 0x0123456789abcdef
	probe.Target = 0x1122334455667788
	probe.MemAddr = 0x99aabbccddeeff00
	probe.DstValue = 0xfedcba9876543210
	probe.Kind = trace.KindCondBr
	probe.Taken = true
	probe.DstReg = 0xAA
	probe.SrcRegs = [2]uint8{0xBB, 0xCC}
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&probe)), unsafe.Sizeof(probe))
	size := instBytes // wrap-around multiply; as a const expr it overflows
	return fnv1a(raw) ^ (size * 0x9e3779b97f4a7c15)
}()

// Key identifies one storable recording by content: everything the
// deterministic generation pipeline is a function of. Two processes
// (or two CI jobs) that would record byte-identical slice arrays
// compute equal keys; any divergence in geometry lands in a different
// directory instead of serving mismatched bytes.
type Key struct {
	Name     string // workload name
	Input    int    // application input index
	Budget   uint64 // instruction budget of the recording
	SliceLen uint64 // slice granularity the arrays were recorded at
}

// hash64 returns the content address of k: the FNV-1a of its canonical
// encoding, format version and machine layout folded in. Slice files
// embed it to bind themselves to their trace.
func (k Key) hash64() uint64 {
	b := make([]byte, 0, 64)
	b = binary.AppendUvarint(b, FormatVersion)
	b = binary.AppendUvarint(b, layoutSig)
	b = binary.AppendUvarint(b, uint64(len(k.Name)))
	b = append(b, k.Name...)
	b = binary.AppendUvarint(b, uint64(k.Input))
	b = binary.AppendUvarint(b, k.Budget)
	b = binary.AppendUvarint(b, k.SliceLen)
	return fnv1a(b)
}

// hash renders k's content address as 16 hex digits: the store
// directory name.
func (k Key) hash() string {
	return fmt.Sprintf("%016x", k.hash64())
}

// appendKey appends k's identity echo (the fields, not the hash) for
// embedding in the header file, so a hash collision or a misplaced
// file is detected by comparison rather than trusted.
func appendKey(b []byte, k Key) []byte {
	b = binary.AppendUvarint(b, uint64(len(k.Name)))
	b = append(b, k.Name...)
	b = binary.AppendUvarint(b, uint64(k.Input))
	b = binary.AppendUvarint(b, k.Budget)
	b = binary.AppendUvarint(b, k.SliceLen)
	return b
}

// reject builds a typed integrity error for one file.
func reject(path, why string) error {
	return fmt.Errorf("%w: %s: %s", ErrReject, path, why)
}

// encodeHeader serializes a trace header file: identity echo, recorded
// extent, trailing checksum over everything before it.
func encodeHeader(k Key, total uint64) []byte {
	b := make([]byte, 0, 64)
	b = append(b, headerMagic[:]...)
	b = binary.AppendUvarint(b, FormatVersion)
	b = binary.AppendUvarint(b, layoutSig)
	b = appendKey(b, k)
	b = binary.AppendUvarint(b, total)
	var sum [8]byte
	binary.LittleEndian.PutUint64(sum[:], checksum(b))
	return append(b, sum[:]...)
}

// decodeHeader parses and verifies a header file against the requested
// key, returning the recorded extent. Every mismatch — magic, version,
// layout, identity, truncation, checksum — is a typed reject.
//
//storegate:gate
func decodeHeader(path string, k Key, b []byte) (total uint64, err error) {
	if len(b) < len(headerMagic)+8 {
		return 0, reject(path, "truncated header file")
	}
	body, sum := b[:len(b)-8], binary.LittleEndian.Uint64(b[len(b)-8:])
	if checksum(body) != sum {
		return 0, reject(path, "header checksum mismatch")
	}
	if [4]byte(body[:4]) != headerMagic {
		return 0, reject(path, "bad header magic")
	}
	off := 4
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(body[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
		return v, true
	}
	version, ok := next()
	if !ok || version != FormatVersion {
		return 0, reject(path, fmt.Sprintf("format version %d (want %d)", version, FormatVersion))
	}
	sig, ok := next()
	if !ok || sig != layoutSig {
		return 0, reject(path, "machine layout mismatch")
	}
	nameLen, ok := next()
	if !ok || uint64(len(body)-off) < nameLen {
		return 0, reject(path, "truncated identity echo")
	}
	name := string(body[off : off+int(nameLen)])
	off += int(nameLen)
	input, ok1 := next()
	budget, ok2 := next()
	sliceLen, ok3 := next()
	if !ok1 || !ok2 || !ok3 {
		return 0, reject(path, "truncated identity echo")
	}
	if name != k.Name || int(input) != k.Input || budget != k.Budget || sliceLen != k.SliceLen {
		return 0, reject(path, "identity echo does not match the requested key")
	}
	total, ok = next()
	if !ok {
		return 0, reject(path, "truncated extent")
	}
	if total > k.Budget {
		return 0, reject(path, fmt.Sprintf("recorded extent %d exceeds budget %d", total, k.Budget))
	}
	if off != len(body) {
		return 0, reject(path, "trailing bytes after extent")
	}
	return total, nil
}

// encodeSliceHeader fills the fixed 64-byte slice-file header.
//
//	off  0  magic "BLSS"
//	off  4  format version (u32)
//	off  8  machine layout signature (u64)
//	off 16  slice index (u64)
//	off 24  instruction count (u64)
//	off 32  instruction size in bytes (u64)
//	off 40  payload CRC-32C, zero-extended (u64)
//	off 48  key hash (u64) — binds the slice to its trace
//	off 56  CRC-32C over bytes [0,56), zero-extended (u64)
//	off 64  payload: count raw instructions
func encodeSliceHeader(keyHash64 uint64, idx int, count uint64, payloadSum uint64) [sliceHeaderSize]byte {
	var h [sliceHeaderSize]byte
	copy(h[0:4], sliceMagic[:])
	binary.LittleEndian.PutUint32(h[4:8], FormatVersion)
	binary.LittleEndian.PutUint64(h[8:16], layoutSig)
	binary.LittleEndian.PutUint64(h[16:24], uint64(idx))
	binary.LittleEndian.PutUint64(h[24:32], count)
	binary.LittleEndian.PutUint64(h[32:40], instBytes)
	binary.LittleEndian.PutUint64(h[40:48], payloadSum)
	binary.LittleEndian.PutUint64(h[48:56], keyHash64)
	binary.LittleEndian.PutUint64(h[56:64], checksum(h[:56]))
	return h
}

// verifySliceFile checks a mapped (or read) slice file end to end:
// header integrity, identity, and the payload checksum — the full
// never-wrong-bytes gate. wantCount is the instruction count the
// caller's trace geometry demands of this slice.
func verifySliceFile(path string, data []byte, keyHash64 uint64, idx int, wantCount uint64) error {
	if len(data) < sliceHeaderSize {
		return reject(path, "truncated slice header")
	}
	h := data[:sliceHeaderSize]
	if checksum(h[:56]) != binary.LittleEndian.Uint64(h[56:64]) {
		return reject(path, "slice header checksum mismatch")
	}
	if [4]byte(h[0:4]) != sliceMagic {
		return reject(path, "bad slice magic")
	}
	if v := binary.LittleEndian.Uint32(h[4:8]); v != FormatVersion {
		return reject(path, fmt.Sprintf("format version %d (want %d)", v, FormatVersion))
	}
	if binary.LittleEndian.Uint64(h[8:16]) != layoutSig {
		return reject(path, "machine layout mismatch")
	}
	if got := binary.LittleEndian.Uint64(h[16:24]); got != uint64(idx) {
		return reject(path, fmt.Sprintf("slice index %d (want %d)", got, idx))
	}
	count := binary.LittleEndian.Uint64(h[24:32])
	if count != wantCount {
		return reject(path, fmt.Sprintf("instruction count %d (want %d)", count, wantCount))
	}
	if binary.LittleEndian.Uint64(h[32:40]) != instBytes {
		return reject(path, "instruction size mismatch")
	}
	if binary.LittleEndian.Uint64(h[48:56]) != keyHash64 {
		return reject(path, "slice belongs to a different trace")
	}
	payload := data[sliceHeaderSize:]
	if uint64(len(payload)) != count*instBytes {
		return reject(path, fmt.Sprintf("payload is %d bytes (want %d)", len(payload), count*instBytes))
	}
	if checksum(payload) != binary.LittleEndian.Uint64(h[40:48]) {
		return reject(path, "payload checksum mismatch")
	}
	return nil
}

// payloadBytes views insts' backing memory as raw bytes — the zero-copy
// write path. The view aliases live cache data; it is only ever read.
func payloadBytes(insts []trace.Inst) []byte {
	if len(insts) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&insts[0])), uintptr(len(insts))*unsafe.Sizeof(trace.Inst{}))
}

// payloadInsts casts a verified payload back to the instruction array.
// The mmap path serves the cast zero-copy (the payload offset keeps the
// required alignment); a misaligned buffer — possible only on the
// portable read fallback — copies once into a fresh aligned array.
func payloadInsts(payload []byte, count uint64) []trace.Inst {
	if count == 0 {
		return []trace.Inst{}
	}
	if uintptr(unsafe.Pointer(&payload[0]))%unsafe.Alignof(trace.Inst{}) == 0 {
		return unsafe.Slice((*trace.Inst)(unsafe.Pointer(&payload[0])), count)
	}
	out := make([]trace.Inst, count)
	copy(payloadBytes(out), payload)
	return out
}
