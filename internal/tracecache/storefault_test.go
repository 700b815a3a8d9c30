//go:build faultinject

package tracecache

import (
	"testing"

	"branchlab/internal/faultinject"
	"branchlab/internal/tracestore"
)

// TestStoreCorruptChaosWarmRunByteIdentical is the end-to-end
// never-wrong-bytes drill: with the StoreCorrupt chaos point armed,
// every slice file lands on disk with a flipped byte. A warm restart
// must restore the header, checksum-reject every corrupted slice, and
// re-materialize identical bytes — corruption costs re-records, never
// correctness.
func TestStoreCorruptChaosWarmRunByteIdentical(t *testing.T) {
	seed := findChaosSeed(t, faultinject.StoreCorrupt)
	dir := t.TempDir()

	// Clean cold run (no plan armed): the uncorrupted reference bytes.
	faultinject.Deactivate()
	ref := &source{n: 100}
	cRef := NewSliced(0, 25)
	want := drain(t, record(t, cRef, "w", 0, 100, ref.Source()))

	// Corrupting cold run: every write-through lands flipped.
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
	// the chaos point does not touch them), every slice pin rejects,
	// and refills regenerate the identical trace.
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
	if cs.DiskRejects != 4 || cs.SliceRerecords != 4 {
		t.Fatalf("stats = %+v, want all 4 slices rejected and re-recorded", cs)
	}
	if warm.records.Load() != 0 {
		t.Fatal("slice-level fallback escalated to a full re-recording")
	}
}
