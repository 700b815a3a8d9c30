package tracestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"branchlab/internal/trace"
)

// testInsts builds a deterministic instruction array: every field
// populated so checksums exercise the full struct, including branches.
func testInsts(n int, salt uint64) []trace.Inst {
	insts := make([]trace.Inst, n)
	for i := range insts {
		x := salt + uint64(i)*0x9e3779b97f4a7c15
		insts[i] = trace.Inst{
			IP:       0x400000 + x%4096,
			Target:   0x400000 + (x>>13)%4096,
			MemAddr:  x >> 7,
			DstValue: x,
			Kind:     trace.KindCondBr,
			Taken:    x%3 == 0,
			DstReg:   uint8(x % 16),
			SrcRegs:  [2]uint8{uint8(x % 13), uint8(x % 11)},
		}
	}
	return insts
}

// WriteSlice persists slice idx of k's recording in one go: a
// SliceWriter given the whole array, the test's way to fill a store.
func (s *Store) WriteSlice(k Key, idx int, insts []trace.Inst) error {
	w := s.BeginSlice(k, idx)
	w.Append(insts)
	return w.Commit()
}

func testKey() Key {
	return Key{Name: "zoo/test", Input: 2, Budget: 1 << 20, SliceLen: 4096}
}

func mustOpen(t testing.TB, dir string, cap int64) *Store {
	t.Helper()
	s, err := Open(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sameInsts compares two instruction arrays for exact equality.
func sameInsts(a, b []trace.Inst) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	insts := testInsts(4096, 1)
	tail := testInsts(100, 2)

	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, insts); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteSlice(k, 1, tail); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteHeader(k, k.Budget); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory — the restart — must serve
	// identical bytes.
	s2 := mustOpen(t, dir, 0)
	total, err := s2.ReadHeader(k)
	if err != nil {
		t.Fatal(err)
	}
	if total != k.Budget {
		t.Fatalf("total = %d, want %d", total, k.Budget)
	}
	p0, err := s2.PinSlice(k, 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInsts(p0.PinnedInsts(), insts) {
		t.Fatal("slice 0 bytes differ after reopen")
	}
	p0.Unpin()
	p1, err := s2.PinSlice(k, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInsts(p1.PinnedInsts(), tail) {
		t.Fatal("slice 1 bytes differ after reopen")
	}
	p1.Unpin()
	st := s2.Stats()
	if st.HeaderHits != 1 || st.SliceHits != 2 || st.Rejects != 0 {
		t.Fatalf("stats = %v", st)
	}
}

func TestWriteIdempotent(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	k := testKey()
	insts := testInsts(64, 3)
	for i := 0; i < 3; i++ {
		if err := s.WriteSlice(k, 0, insts); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteHeader(k, 64); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SliceWrites != 1 || st.HeaderWrites != 1 || st.WriteSkips != 4 {
		t.Fatalf("writes=%d/%d skips=%d, want 1/1/4", st.SliceWrites, st.HeaderWrites, st.WriteSkips)
	}
}

func TestMissIsNotFound(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	k := testKey()
	if _, err := s.ReadHeader(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ReadHeader miss = %v, want ErrNotFound", err)
	}
	if _, err := s.PinSlice(k, 0, 64); !errors.Is(err, ErrNotFound) {
		t.Fatalf("PinSlice miss = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.HeaderMisses != 1 || st.SliceMisses != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	k := testKey()
	if err := s.WriteSlice(k, 0, testInsts(8, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteHeader(k, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadHeader(k); !errors.Is(err, ErrNotFound) {
		t.Fatal("nil ReadHeader must miss")
	}
	if _, err := s.PinSlice(k, 0, 8); !errors.Is(err, ErrNotFound) {
		t.Fatal("nil PinSlice must miss")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("nil Stats = %v", got)
	}
}

// slicePath digs out the on-disk path of a stored slice for the
// corruption tests.
func slicePath(s *Store, k Key, idx int) string {
	dir, _ := s.tracePath(k)
	return filepath.Join(dir, "s00000"+string(rune('0'+idx)))
}

func TestBitFlipRejected(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	insts := testInsts(512, 4)
	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, insts); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Flip one payload byte on disk — the CI corruption drill, locally.
	path := slicePath(s, k, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[sliceHeaderSize+17] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, 0)
	if _, err := s2.PinSlice(k, 0, 512); !errors.Is(err, ErrReject) {
		t.Fatalf("bit-flipped slice pinned: err = %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("rejected file was not deleted")
	}
	// The slot is now a clean miss, and a rewrite restores service.
	if _, err := s2.PinSlice(k, 0, 512); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-reject pin = %v, want ErrNotFound", err)
	}
	if err := s2.WriteSlice(k, 0, insts); err != nil {
		t.Fatal(err)
	}
	p, err := s2.PinSlice(k, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !sameInsts(p.PinnedInsts(), insts) {
		t.Fatal("re-recorded slice differs")
	}
	p.Unpin()
	if st := s2.Stats(); st.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", st.Rejects)
	}
}

func TestTruncatedFilesRejected(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, testInsts(512, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteHeader(k, 512); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, tc := range []struct {
		file string
		keep int64
	}{
		{slicePath(s, k, 0), sliceHeaderSize + 100}, // torn payload
		{slicePath(s, k, 0), 10},                    // torn header
		{filepath.Join(filepath.Dir(slicePath(s, k, 0)), "header"), 6},
	} {
		// Rebuild the fixture each round (rejects delete files).
		s1 := mustOpen(t, dir, 0)
		s1.WriteSlice(k, 0, testInsts(512, 5))
		s1.WriteHeader(k, 512)
		s1.Close()
		if err := os.Truncate(tc.file, tc.keep); err != nil {
			t.Fatal(err)
		}
		s2 := mustOpen(t, dir, 0)
		if filepath.Base(tc.file) == "header" {
			if _, err := s2.ReadHeader(k); !errors.Is(err, ErrReject) {
				t.Fatalf("truncated header accepted: %v", err)
			}
		} else {
			if _, err := s2.PinSlice(k, 0, 512); !errors.Is(err, ErrReject) {
				t.Fatalf("truncated slice accepted: %v", err)
			}
		}
		s2.Close()
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, testInsts(64, 6)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Patch the version field and re-seal the header checksum, so the
	// file is internally consistent but from "the future": the reader
	// must reject on version, not checksum.
	path := slicePath(s, k, 0)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:8], FormatVersion+1)
	binary.LittleEndian.PutUint64(b[56:64], checksum(b[:56]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 0)
	_, err = s2.PinSlice(k, 0, 64)
	//lint:ignore errcontract asserts which check fired (version, not checksum); every reject shares the ErrReject sentinel and names its failed check only in the message
	if !errors.Is(err, ErrReject) || !strings.Contains(err.Error(), "format version") {
		t.Fatalf("future-version slice: err = %v, want a format-version reject", err)
	}
}

// quickSliceInsts is the slice length of the Quick experiment
// configuration: the size of the files a quick run stores.
const quickSliceInsts = 200_000

// TestChecksumDetection: on one Quick-sized slice file, single-bit
// flips at every header byte and at sampled payload bytes, 4-byte
// bursts, a file one instruction short and a file with one extra
// trailing byte all reject typed.
func TestChecksumDetection(t *testing.T) {
	k := testKey()
	insts := testInsts(quickSliceInsts, 12)
	payload := payloadBytes(insts)
	hdr := encodeSliceHeader(k.hash64(), 0, quickSliceInsts, checksum(payload))
	file := append(hdr[:], payload...)
	verify := func(b []byte) error {
		return verifySliceFile("slice", b, k.hash64(), 0, quickSliceInsts)
	}
	if err := verify(file); err != nil {
		t.Fatalf("pristine file rejected: %v", err)
	}
	mustReject := func(what string, b []byte) {
		t.Helper()
		if err := verify(b); !errors.Is(err, ErrReject) {
			t.Fatalf("%s: err = %v, want ErrReject", what, err)
		}
	}

	var offsets []int
	for off := 0; off < sliceHeaderSize; off++ {
		offsets = append(offsets, off)
	}
	for i := 0; i < 64; i++ {
		offsets = append(offsets, sliceHeaderSize+i*(len(payload)-1)/63)
	}
	for _, off := range offsets {
		for bit := 0; bit < 8; bit++ {
			file[off] ^= 1 << bit
			mustReject(fmt.Sprintf("bit %d of byte %d flipped", bit, off), file)
			file[off] ^= 1 << bit
		}
	}
	for _, off := range []int{20, 52, sliceHeaderSize, sliceHeaderSize + len(payload)/2 + 1, len(file) - 4} {
		for i := off; i < off+4; i++ {
			file[i] ^= 0xA5
		}
		mustReject(fmt.Sprintf("4-byte burst at %d", off), file)
		for i := off; i < off+4; i++ {
			file[i] ^= 0xA5
		}
	}
	mustReject("truncated by one instruction", file[:len(file)-int(instBytes)])
	mustReject("one trailing byte", append(file[:len(file):len(file)], 0))
	if err := verify(file); err != nil {
		t.Fatalf("restored file rejected: %v", err)
	}
}

func TestWrongCountRejected(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, testInsts(64, 7)); err != nil {
		t.Fatal(err)
	}
	// Caller geometry demands 128 instructions; the 64-inst file must
	// reject rather than serve a short array.
	if _, err := s.PinSlice(k, 0, 128); !errors.Is(err, ErrReject) {
		t.Fatal("short slice served against a larger want-count")
	}
}

func TestHeaderKeyMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	s := mustOpen(t, dir, 0)
	if err := s.WriteHeader(k, 512); err != nil {
		t.Fatal(err)
	}
	// Same hash directory, different identity echo: move the header
	// into the directory of a different key to simulate a collision or
	// a misplaced file.
	k2 := k
	k2.Budget = k.Budget * 2
	srcDir, _ := s.tracePath(k)
	dstDir, _ := s.tracePath(k2)
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(srcDir, "header"), filepath.Join(dstDir, "header")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadHeader(k2); !errors.Is(err, ErrReject) {
		t.Fatal("foreign header accepted")
	}
}

func TestDiskCapEvictsColdTraces(t *testing.T) {
	dir := t.TempDir()
	insts := testInsts(1024, 8) // 40 KiB + header per slice
	sliceBytes := int64(len(payloadBytes(insts))) + sliceHeaderSize

	s := mustOpen(t, dir, 3*sliceBytes+4096)
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = testKey()
		keys[i].Input = i
		if err := s.WriteSlice(keys[i], 0, insts); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DirsEvicted == 0 {
		t.Fatal("cap never evicted")
	}
	if st.BytesOnDisk > 3*sliceBytes+4096 {
		t.Fatalf("disk over cap: %d", st.BytesOnDisk)
	}
	// The hottest (last-written) trace must still be resident.
	p, err := s.PinSlice(keys[4], 0, 1024)
	if err != nil {
		t.Fatalf("hottest trace evicted: %v", err)
	}
	p.Unpin()
	// The coldest must be gone.
	if _, err := s.PinSlice(keys[0], 0, 1024); !errors.Is(err, ErrNotFound) {
		t.Fatalf("coldest trace survived a full cap sweep: %v", err)
	}
}

func TestPinSurvivesDiskEviction(t *testing.T) {
	dir := t.TempDir()
	insts := testInsts(1024, 9)
	sliceBytes := int64(len(payloadBytes(insts))) + sliceHeaderSize
	s := mustOpen(t, dir, sliceBytes+512)

	k0 := testKey()
	if err := s.WriteSlice(k0, 0, insts); err != nil {
		t.Fatal(err)
	}
	p, err := s.PinSlice(k0, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Writing a second trace blows the cap and evicts k0's directory —
	// unlinking the mmap'd file under the live pin.
	k1 := testKey()
	k1.Input = 99
	if err := s.WriteSlice(k1, 0, insts); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PinSlice(k0, 0, 1024); !errors.Is(err, ErrNotFound) {
		// The mapping cache may legitimately still serve it; accept a
		// hit too, but the pin below must hold either way.
		_ = err
	}
	if !sameInsts(p.PinnedInsts(), insts) {
		t.Fatal("pin did not survive disk eviction of its file")
	}
	p.Unpin()
}

func TestReopenInventoriesExisting(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, testInsts(256, 10)); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteHeader(k, 256); err != nil {
		t.Fatal(err)
	}
	want := s.Stats().BytesOnDisk
	s.Close()

	s2 := mustOpen(t, dir, 0)
	st := s2.Stats()
	if st.Traces != 1 || st.BytesOnDisk != want {
		t.Fatalf("reopen inventory: traces=%d bytes=%d, want 1/%d", st.Traces, st.BytesOnDisk, want)
	}
}

func TestConcurrentPinAndWrite(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	k := testKey()
	insts := testInsts(2048, 11)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.WriteSlice(k, i%4, insts); err != nil {
					t.Error(err)
					return
				}
				p, err := s.PinSlice(k, i%4, 2048)
				if err != nil {
					if errors.Is(err, ErrNotFound) {
						continue // racing the first write of this slot
					}
					t.Error(err)
					return
				}
				if !sameInsts(p.PinnedInsts(), insts) {
					t.Error("concurrent pin served wrong bytes")
					p.Unpin()
					return
				}
				p.Unpin()
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Rejects != 0 {
		t.Fatalf("concurrent use produced rejects: %v", st)
	}
}

func TestKeyHashSensitivity(t *testing.T) {
	base := testKey()
	seen := map[string]Key{base.hash(): base}
	for _, k := range []Key{
		{Name: "zoo/test2", Input: 2, Budget: 1 << 20, SliceLen: 4096},
		{Name: "zoo/test", Input: 3, Budget: 1 << 20, SliceLen: 4096},
		{Name: "zoo/test", Input: 2, Budget: 1 << 21, SliceLen: 4096},
		{Name: "zoo/test", Input: 2, Budget: 1 << 20, SliceLen: 8192},
	} {
		h := k.hash()
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %+v and %+v", prev, k)
		}
		seen[h] = k
	}
	if base.hash() != testKey().hash() {
		t.Fatal("hash is not a pure function of the key")
	}
}

func TestEmptySliceRoundtrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	k := testKey()
	if err := s.WriteSlice(k, 0, nil); err != nil {
		t.Fatal(err)
	}
	p, err := s.PinSlice(k, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.PinnedInsts()) != 0 {
		t.Fatal("empty slice served instructions")
	}
	p.Unpin()
}

// tempFiles lists the tmp-* files under dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*", tmpPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// A slice streamed through a SliceWriter in uneven pieces lands as the
// same file, byte for byte, as WriteSlice of the whole array, and
// serves the same instructions.
func TestSliceWriterStreamsLikeWriteSlice(t *testing.T) {
	insts := testInsts(1000, 11)
	k := testKey()
	whole := mustOpen(t, t.TempDir(), 0)
	if err := whole.WriteSlice(k, 3, insts); err != nil {
		t.Fatal(err)
	}
	streamed := mustOpen(t, t.TempDir(), 0)
	w := streamed.BeginSlice(k, 3)
	for _, cut := range [][2]int{{0, 1}, {1, 1}, {1, 400}, {400, 999}, {999, 1000}} {
		w.Append(insts[cut[0]:cut[1]])
	}
	if len(tempFiles(t, streamed.Dir())) != 1 {
		t.Fatal("an open slice writer must hold exactly one temp file")
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(slicePath(whole, k, 3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(slicePath(streamed, k, 3))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("streamed slice file differs from the one-shot write")
	}
	if tmp := tempFiles(t, streamed.Dir()); len(tmp) != 0 {
		t.Fatalf("commit left temp files %v", tmp)
	}
	p, err := streamed.PinSlice(k, 3, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin()
	if !sameInsts(p.PinnedInsts(), insts) {
		t.Fatal("streamed slice served wrong bytes")
	}
	if st, wst := streamed.Stats(), whole.Stats(); st.SliceWrites != 1 || st.BytesOnDisk != wst.BytesOnDisk {
		t.Fatalf("streamed stats %+v, want 1 write and the one-shot write's %d bytes on disk", st, wst.BytesOnDisk)
	}
}

// Abort leaves nothing behind; a writer for a slice already stored
// skips it without touching the file.
func TestSliceWriterAbortAndSkip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	k := testKey()
	insts := testInsts(64, 12)
	w := s.BeginSlice(k, 0)
	w.Append(insts[:32])
	w.Abort()
	if err := w.Commit(); err != nil {
		t.Fatalf("commit after abort = %v, want a no-op", err)
	}
	if _, err := s.PinSlice(k, 0, 32); !errors.Is(err, ErrNotFound) {
		t.Fatalf("aborted slice is servable: %v", err)
	}
	if tmp := tempFiles(t, s.Dir()); len(tmp) != 0 {
		t.Fatalf("abort left temp files %v", tmp)
	}
	if err := s.WriteSlice(k, 0, insts); err != nil {
		t.Fatal(err)
	}
	w = s.BeginSlice(k, 0)
	w.Append(testInsts(64, 13))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	p, err := s.PinSlice(k, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin()
	if !sameInsts(p.PinnedInsts(), insts) {
		t.Fatal("a second writer of a stored slice replaced it")
	}
	if st := s.Stats(); st.SliceWrites != 1 || st.WriteSkips != 1 || st.WriteErrors != 0 {
		t.Fatalf("stats %+v, want 1 write, 1 skip, no errors", st)
	}
	var nilStore *Store
	nw := nilStore.BeginSlice(k, 0)
	nw.Append(insts)
	nw.Abort()
	if err := nw.Commit(); err != nil {
		t.Fatal(err)
	}
}

// Open counts stored files only: a live writer's tmp-* file is not
// trace data yet, so it neither inflates BytesOnDisk nor pushes the cap
// to evict. It still goes when its directory does.
func TestOpenIgnoresStrayTempFiles(t *testing.T) {
	dir := t.TempDir()
	k := testKey()
	insts := testInsts(256, 14)
	s := mustOpen(t, dir, 0)
	if err := s.WriteSlice(k, 0, insts); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteHeader(k, 256); err != nil {
		t.Fatal(err)
	}
	want := s.Stats().BytesOnDisk
	s.Close()
	traceDir, _ := s.tracePath(k)
	stray := filepath.Join(traceDir, fmt.Sprintf("%s%d-1", tmpPrefix, os.Getpid()))
	if err := os.WriteFile(stray, make([]byte, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}

	if got := mustOpen(t, dir, 0).Stats().BytesOnDisk; got != want {
		t.Fatalf("BytesOnDisk = %d with a stray temp file, want %d", got, want)
	}
	// A cap that fits the stored bytes but not the stray keeps the trace.
	capped := mustOpen(t, dir, want)
	if st := capped.Stats(); st.DirsEvicted != 0 || st.Traces != 1 {
		t.Fatalf("stats %+v: the stray temp file pushed the cap to evict", st)
	}
	// Evicting the directory removes the stray with it.
	other := k
	other.Input++
	if err := capped.WriteSlice(other, 0, insts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray temp file survived its directory's eviction: %v", err)
	}
}
