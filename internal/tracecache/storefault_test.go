//go:build faultinject

package tracecache

import (
	"sync"
	"testing"

	"branchlab/internal/faultinject"
	"branchlab/internal/tracestore"
)

// TestStoreCorruptChaosWarmRunByteIdentical is the end-to-end
// never-wrong-bytes drill: with the StoreCorrupt chaos point armed,
// every slice file lands on disk with a flipped byte. A warm restart
// must restore the header, checksum-reject the first corrupted slice
// and re-record the trace once, which serves every slice with identical
// bytes — corruption costs a re-record, never correctness.
func TestStoreCorruptChaosWarmRunByteIdentical(t *testing.T) {
	seed := findChaosSeed(t, faultinject.StoreCorrupt)
	dir := t.TempDir()

	// Clean cold run (no plan armed): the uncorrupted reference bytes.
	faultinject.Deactivate()
	ref := &source{n: 100}
	cRef := NewSliced(0, 25)
	want := drain(t, record(t, cRef, "w", 0, 100, ref.Source()))

	// Corrupting cold run: every write-through lands flipped. The cold
	// run serves its slices from the store too, so it already meets the
	// corruption and re-records once.
	if err := faultinject.Activate(seed); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()
	st1, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	cold := &source{n: 100}
	c1 := NewSliced(0, 25)
	c1.SetStore(st1)
	got := drain(t, record(t, c1, "w", 0, 100, cold.Source()))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cold run inst %d differs under corrupt chaos — in-memory bytes touched", i)
		}
	}
	st1.Close()

	// Warm restart: header restores (headers are not slice payloads, so
	// the chaos point does not touch them), the first slice pin rejects,
	// and one re-record regenerates the identical trace, which then stays
	// on the heap.
	st2, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	warm := &source{n: 100}
	c2 := NewSliced(0, 25)
	c2.SetStore(st2)
	got = drain(t, record(t, c2, "w", 0, 100, warm.Source()))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("warm run inst %d differs after corruption fallback", i)
		}
	}
	cs := c2.Stats()
	if cs.DiskHeaderHits != 1 {
		t.Fatalf("warm run did not restore the header: %+v", cs)
	}
	if cs.DiskRejects != 1 || cs.SliceRerecords != 1 || cs.Misses != 0 || cs.Slices != 4 {
		t.Fatalf("stats = %+v, want 1 reject served by 1 re-record, no miss, the trace on the heap", cs)
	}
	if warm.records.Load() != 1 {
		t.Fatalf("warm run recorded %d times, want the one re-record", warm.records.Load())
	}
}

// TestStoreCorruptChaosConcurrentPinsShareOneRerecord: with every
// stored slice corrupted by the StoreCorrupt chaos point, concurrent
// replays of a warm trace each hit a rejected file. They share one
// whole-trace re-record and replay byte-identically.
func TestStoreCorruptChaosConcurrentPinsShareOneRerecord(t *testing.T) {
	seed := findChaosSeed(t, faultinject.StoreCorrupt)
	dir := t.TempDir()
	if err := faultinject.Activate(seed); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()
	c1, _ := withStore(t, dir, 0, 25)
	drain(t, record(t, c1, "w", 0, 100, (&source{n: 100}).Source()))

	// A warm cache restores the header with every slice on disk only.
	warm := &source{n: 100}
	c2, _ := withStore(t, dir, 0, 25)
	v := record(t, c2, "w", 0, 100, warm.Source())
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, val := range values(v) {
				if val != uint64(i) {
					t.Errorf("inst %d = %d, want %d", i, val, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cs := c2.Stats(); cs.SliceRerecords != 1 || cs.DiskRejects != 1 || warm.records.Load() != 1 {
		t.Fatalf("stats = %+v, %d recordings; want 1 reject served by 1 shared re-record", cs, warm.records.Load())
	}
}
