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
// header plus the payload. A pinned slice pins its whole file.
func sliceFileBytes(insts int) int64 { return 64 + int64(insts)*instBytes }

// warmStore records an n-instruction trace of sliceLen-instruction
// slices through a store in dir and closes it, so a fresh cache over
// the directory serves every slice from disk.
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
// reference to the slice they read; the cache holds none, so once every
// stream has ended nothing is pinned and the store's resident bytes are
// back to zero.
func TestStreamsReleasePinsWithinCap(t *testing.T) {
	const n, sliceLen = 256, 16
	dir := t.TempDir()
	warmStore(t, dir, n, sliceLen)
	c, st := withStore(t, dir, 2*sliceFileBytes(sliceLen), sliceLen)
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
	if cs.DiskSliceHits != 8*4*n/sliceLen || cs.Slices != 0 || cs.Misses != 0 {
		t.Fatalf("cache stats = %+v, want every slice pin served by the store, none on the heap, no recording", cs)
	}
	if ss.BytesResident != 0 {
		t.Fatalf("store resident = %d once every stream ended, want 0 (streams must have unpinned)", ss.BytesResident)
	}
	if ss.PeakResident == 0 {
		t.Fatal("peak resident 0: streams held no references of their own")
	}
}

// TestAbandonedStreamReleasedByCleanup: a stream dropped mid-slice
// (never drained to its end) still holds its slice's store reference;
// the collector's cleanup releases it.
func TestAbandonedStreamReleasedByCleanup(t *testing.T) {
	const n, sliceLen = 64, 16
	dir := t.TempDir()
	warmStore(t, dir, n, sliceLen)
	// The cache holds no pin of its own, so the stream's reference is
	// the only one.
	c, st := withStore(t, dir, 0, sliceLen)
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

// TestUncappedStoreCacheHoldsNoPins: an uncapped cache with a store
// also serves every committed slice from it, cold and warm, so once its
// replays end the store keeps no pages resident while the cache lives.
func TestUncappedStoreCacheHoldsNoPins(t *testing.T) {
	const n, sliceLen = 64, 16
	for _, warm := range []bool{false, true} {
		dir := t.TempDir()
		if warm {
			warmStore(t, dir, n, sliceLen)
		}
		c, st := withStore(t, dir, 0, sliceLen)
		src := &source{n: n}
		v := record(t, c, "w", 0, n, src.Source())
		checkIdentity(t, drain(t, v))
		cs := c.Stats()
		if cs.Slices != 0 || cs.BytesInUse != 0 || cs.DiskSliceHits != 4 || cs.SliceHits != 0 {
			t.Fatalf("warm=%v: cache stats = %+v, want 4 store hits and nothing on the heap", warm, cs)
		}
		if got := st.Stats().BytesResident; got != 0 {
			t.Fatalf("warm=%v: store resident = %d with the cache alive and no stream open, want 0", warm, got)
		}
		runtime.KeepAlive(c)
	}
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
