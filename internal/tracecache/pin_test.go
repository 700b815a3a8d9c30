package tracecache

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"branchlab/internal/trace"
	"branchlab/internal/tracestore"
)

// sliceFileBytes is one stored slice file's size: the 64-byte slice
// header plus the payload. A promoted slice pins its whole file, so the
// store counts a little more resident than the cache counts in use.
func sliceFileBytes(insts int) int64 { return 64 + int64(insts)*instBytes }

// warmStore records an n-instruction trace of sliceLen-instruction
// slices through a store in dir and closes it, so a fresh cache over
// the directory promotes every slice from disk.
func warmStore(t *testing.T, dir string, n int, sliceLen uint64) {
	t.Helper()
	st, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := NewSliced(0, sliceLen)
	c.SetStore(st)
	checkIdentity(t, drain(t, record(t, c, "w", 0, uint64(n), (&source{n: n}).Source())))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitResident polls st's resident bytes, running the collector, until
// they reach want or a deadline passes.
func waitResident(t *testing.T, st *tracestore.Store, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		got := st.Stats().BytesResident
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("store resident bytes = %d after collection, want %d", got, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamsReleasePinsWithinCap: concurrent whole-slice and 7-inst
// block streams over one capped, store-served trace each hold their own
// reference to the slice they read; once every stream has ended only
// the RAM tier's resident slices are still pinned, so the store's
// resident bytes are within the cache cap.
func TestStreamsReleasePinsWithinCap(t *testing.T) {
	const n, sliceLen = 256, 16
	dir := t.TempDir()
	warmStore(t, dir, n, sliceLen)
	// Room for two resident slices and their file headers, not three.
	capBytes := 2*sliceFileBytes(sliceLen) + 100
	c, st := withStore(t, dir, capBytes, sliceLen)
	v := record(t, c, "w", 0, n, (&source{n: n}).Source())

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		blockCap := 0
		if g%2 == 1 {
			blockCap = 7
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				s := v.BlockStream(blockCap)
				i := 0
				for blk := s.NextBlock(); len(blk) > 0; blk = s.NextBlock() {
					if blockCap > 0 && len(blk) > blockCap {
						errs <- fmt.Sprintf("block of %d insts from BlockStream(%d)", len(blk), blockCap)
						return
					}
					for _, inst := range blk {
						if inst.DstValue != uint64(i) {
							errs <- fmt.Sprintf("BlockStream(%d) inst %d: got %d", blockCap, i, inst.DstValue)
							return
						}
						i++
					}
				}
				if i != n {
					errs <- fmt.Sprintf("BlockStream(%d): short replay (%d insts)", blockCap, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	cs, ss := c.Stats(), st.Stats()
	if cs.DiskSliceHits == 0 || cs.SliceEvictions == 0 || cs.Misses != 0 {
		t.Fatalf("cache stats = %+v, want store promotions and evictions, no recording", cs)
	}
	if want := int64(cs.Slices) * sliceFileBytes(sliceLen); ss.BytesResident != want {
		t.Fatalf("store resident = %d with %d RAM-resident slices, want %d (streams must have unpinned)",
			ss.BytesResident, cs.Slices, want)
	}
	if ss.BytesResident > capBytes {
		t.Fatalf("store resident = %d, above the %d-byte cache cap", ss.BytesResident, capBytes)
	}
	if ss.PeakResident <= ss.BytesResident {
		t.Fatalf("peak resident %d not above the settled %d: streams held no references of their own",
			ss.PeakResident, ss.BytesResident)
	}
}

// TestAbandonedStreamReleasedByCleanup: a stream dropped mid-slice
// (never drained to its end) still holds its slice's store reference;
// the collector's cleanup releases it.
func TestAbandonedStreamReleasedByCleanup(t *testing.T) {
	const n, sliceLen = 64, 16
	dir := t.TempDir()
	warmStore(t, dir, n, sliceLen)
	// A one-byte cap evicts every promoted slice at once, so the
	// stream's reference is the only one.
	c, st := withStore(t, dir, 1, sliceLen)
	v := record(t, c, "w", 0, n, (&source{n: n}).Source())

	func() {
		s := v.BlockStream(7)
		if blk := s.NextBlock(); len(blk) != 7 || blk[0].DstValue != 0 {
			t.Fatalf("first block = %d insts, want 7 from instruction 0", len(blk))
		}
		if got := st.Stats().BytesResident; got != sliceFileBytes(sliceLen) {
			t.Fatalf("resident while a stream reads slice 0 = %d, want %d", got, sliceFileBytes(sliceLen))
		}
	}()
	waitResident(t, st, 0)
	runtime.KeepAlive(v)
}

// TestDroppedCacheReleasesResidentPins: a collected cache's resident
// promoted slices release their store references, so a store that
// outlives its caches keeps no pages resident for them.
func TestDroppedCacheReleasesResidentPins(t *testing.T) {
	const n, sliceLen = 64, 16
	dir := t.TempDir()
	warmStore(t, dir, n, sliceLen)
	st, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })

	func() {
		c := NewSliced(0, sliceLen) // unbounded: every promoted slice stays resident
		c.SetStore(st)
		checkIdentity(t, drain(t, record(t, c, "w", 0, n, (&source{n: n}).Source())))
		if got, want := st.Stats().BytesResident, 4*sliceFileBytes(sliceLen); got != want {
			t.Fatalf("resident with every slice in the RAM tier = %d, want %d", got, want)
		}
	}()
	waitResident(t, st, 0)
}

// TestViewStreamPinsOncePerSlice: a stream pins each slice once, on
// entering it, however many blocks it serves from it.
func TestViewStreamPinsOncePerSlice(t *testing.T) {
	c := NewSliced(0, 16)
	v := record(t, c, "w", 0, 64, (&source{n: 64}).Source())
	before := c.Stats().SliceHits
	s := v.BlockStream(3)
	var got []trace.Inst
	for blk := s.NextBlock(); len(blk) > 0; blk = s.NextBlock() {
		got = append(got, blk...)
	}
	if len(got) != 64 {
		t.Fatalf("replayed %d insts, want 64", len(got))
	}
	if hits := c.Stats().SliceHits - before; hits != 4 {
		t.Fatalf("a 4-slice replay in 3-inst blocks pinned %d times, want 4", hits)
	}
}
