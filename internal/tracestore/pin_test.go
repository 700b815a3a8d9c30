package tracestore

import (
	"os"
	"sync"
	"testing"
)

// pinFixture writes n slices of k's trace into a fresh store and returns
// the store, the slices' contents and one slice file's size.
func pinFixture(t *testing.T, n, insts int) (*Store, Key, [][]byte, int64) {
	t.Helper()
	s := mustOpen(t, t.TempDir(), 0)
	k := testKey()
	var raws [][]byte
	for i := 0; i < n; i++ {
		data := testInsts(insts, uint64(i))
		if err := s.WriteSlice(k, i, data); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, payloadBytes(data))
	}
	return s, k, raws, int64(len(raws[0])) + sliceHeaderSize
}

// residentOf returns the store's resident bytes and their peak.
func residentOf(s *Store) (int64, int64) {
	st := s.Stats()
	return st.BytesResident, st.PeakResident
}

// TestPinRefCounting: each PinSlice adds a reference to the file's one
// mapping, Unpin drops exactly one however often it is called, and the
// mapping's bytes count resident while any reference is live.
func TestPinRefCounting(t *testing.T) {
	s, k, raws, size := pinFixture(t, 1, 512)
	p, err := s.PinSlice(k, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := residentOf(s); got != size {
		t.Fatalf("resident after PinSlice = %d, want %d", got, size)
	}
	var pins [2]*Pin
	for i := range pins { // mapping-cache hits: a second and a third reference
		if pins[i], err = s.PinSlice(k, 0, 512); err != nil {
			t.Fatal(err)
		}
	}
	q, r := pins[0], pins[1]
	if m := s.maps[slicePath(s, k, 0)]; m == nil || m.refs != 3 {
		t.Fatalf("mapping refs = %+v, want 3 (three PinSlice calls)", m)
	}
	for _, pin := range []*Pin{p, q, r} {
		if string(payloadBytes(pin.PinnedInsts())) != string(raws[0]) {
			t.Fatal("a reference serves different bytes")
		}
	}

	p.Unpin()
	p.Unpin() // idempotent: must not drop q's or r's reference
	if p.PinnedInsts() != nil {
		t.Fatal("an unpinned pin still serves instructions")
	}
	if got, _ := residentOf(s); got != size {
		t.Fatalf("resident with two live references = %d, want %d", got, size)
	}
	q.Unpin()
	if got, _ := residentOf(s); got != size {
		t.Fatalf("resident with one live reference = %d, want %d", got, size)
	}
	r.Unpin()
	if got, peak := residentOf(s); got != 0 || peak != size {
		t.Fatalf("resident after the last Unpin = %d (peak %d), want 0 (peak %d)", got, peak, size)
	}
	if m := s.maps[slicePath(s, k, 0)]; m == nil || m.refs != 0 {
		t.Fatal("the released mapping must stay cached, verified, with no references")
	}

	// A released mapping serves the same bytes again on the next pin.
	again, err := s.PinSlice(k, 0, 512)
	if err != nil {
		t.Fatal(err)
	}
	if string(payloadBytes(again.PinnedInsts())) != string(raws[0]) {
		t.Fatal("a re-pinned released mapping serves different bytes")
	}
	again.Unpin()
	if st := s.Stats(); st.BytesResident != 0 || st.BytesMapped != size {
		t.Fatalf("after re-pin and unpin: resident %d, mapped %d; want 0, %d", st.BytesResident, st.BytesMapped, size)
	}
}

// TestPinSliceLostRace: when two pinners map the same file, the one
// that installs second keeps the first's mapping — one cached mapping,
// holding both references — and releases its own.
func TestPinSliceLostRace(t *testing.T) {
	s, k, raws, size := pinFixture(t, 1, 256)
	p, err := s.PinSlice(k, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	path := slicePath(s, k, 0)
	winner := s.maps[path]

	// The loser's side of the race: its own verified mapping of the file.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	raw, mapped, err := mapFile(f, size)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifySliceFile(path, raw, k.hash64(), 0, 256); err != nil {
		t.Fatal(err)
	}
	loser := &mapping{raw: raw, mapped: mapped, insts: payloadInsts(raw[sliceHeaderSize:], 256)}
	if kept := s.adopt(path, k.hash(), loser); kept != winner {
		t.Fatal("the losing pinner's mapping replaced the cached one")
	}
	if winner.refs != 2 || len(s.maps) != 1 {
		t.Fatalf("after the lost race: refs %d, %d cached mappings; want 2, 1", winner.refs, len(s.maps))
	}
	if st := s.Stats(); st.BytesMapped != size || st.BytesResident != size {
		t.Fatalf("after the lost race: mapped %d, resident %d; want %d each", st.BytesMapped, st.BytesResident, size)
	}
	lost := &Pin{s: s, m: winner, insts: winner.insts}
	if string(payloadBytes(lost.PinnedInsts())) != string(raws[0]) {
		t.Fatal("the loser is served different bytes")
	}
	p.Unpin()
	lost.Unpin()
	if got, _ := residentOf(s); got != 0 {
		t.Fatalf("resident after both pinners unpin = %d, want 0", got)
	}
}

// TestConcurrentPinRefUnpin races first pins of fresh files, second
// pins of the same files and Unpins; every reference must read the
// stored bytes, and the resident count must return to zero (the -race
// companion to the counting test).
func TestConcurrentPinRefUnpin(t *testing.T) {
	s, k, raws, _ := pinFixture(t, 4, 1024)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 64; i++ {
				idx := (g + i) % len(raws)
				p, err := s.PinSlice(k, idx, 1024)
				if err != nil {
					errs <- err.Error()
					return
				}
				q, err := s.PinSlice(k, idx, 1024)
				p.Unpin()
				if err != nil {
					errs <- err.Error()
					return
				}
				if string(payloadBytes(q.PinnedInsts())) != string(raws[idx]) {
					errs <- "a reference read the wrong bytes"
				}
				q.Unpin()
				q.Unpin()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if got, peak := residentOf(s); got != 0 || peak == 0 {
		t.Fatalf("resident after every unpin = %d (peak %d), want 0 (peak > 0)", got, peak)
	}
}

// TestResidentReturnsToZero: resident bytes track the union of pinned
// mappings — each counted once however many pins it has — and fall back
// to zero once every pin is gone; the peak keeps the high-water mark.
func TestResidentReturnsToZero(t *testing.T) {
	s, k, _, size := pinFixture(t, 3, 300)
	var pins []*Pin
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < 3; i++ {
			p, err := s.PinSlice(k, i, 300)
			if err != nil {
				t.Fatal(err)
			}
			pins = append(pins, p)
		}
	}
	if got, _ := residentOf(s); got != 3*size {
		t.Fatalf("resident with every slice pinned twice = %d, want %d", got, 3*size)
	}
	for i, p := range pins {
		p.Unpin()
		want := 3 * size
		if i >= 3 {
			want = int64(5-i) * size
		}
		if got, _ := residentOf(s); got != want {
			t.Fatalf("resident after %d unpins = %d, want %d", i+1, got, want)
		}
	}
	if got, peak := residentOf(s); got != 0 || peak != 3*size {
		t.Fatalf("final resident %d (peak %d), want 0 (peak %d)", got, peak, 3*size)
	}
}

// TestCloseWithLivePins: Close unmaps pinned mappings too and zeroes the
// resident count; the live pins' later Unpin is a no-op that leaves the
// counts alone, and the reopened mapping counts afresh.
func TestCloseWithLivePins(t *testing.T) {
	s, k, raws, size := pinFixture(t, 2, 128)
	p, err := s.PinSlice(k, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.PinSlice(k, 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.PinSlice(k, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.BytesResident != 0 || st.BytesMapped != 0 {
		t.Fatalf("after Close: resident %d, mapped %d; want 0, 0", st.BytesResident, st.BytesMapped)
	}
	p.Unpin()
	q.Unpin()
	r.Unpin()
	if got, _ := residentOf(s); got != 0 {
		t.Fatalf("resident after unpinning closed pins = %d, want 0", got)
	}

	// The store directory outlives Close: a new pin maps and counts again.
	again, err := s.PinSlice(k, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if string(payloadBytes(again.PinnedInsts())) != string(raws[1]) {
		t.Fatal("the remapped slice serves different bytes")
	}
	if got, _ := residentOf(s); got != size {
		t.Fatalf("resident after re-pinning past Close = %d, want %d", got, size)
	}
	again.Unpin()
	if got, _ := residentOf(s); got != 0 {
		t.Fatalf("resident after the final Unpin = %d, want 0", got)
	}
}
