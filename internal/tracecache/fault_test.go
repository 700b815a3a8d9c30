//go:build faultinject

package tracecache

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"branchlab/internal/faultinject"
)

// findFailSeed returns a seed arming pt as a Fail point with a trigger
// no later than maxTrigger invocations, plus that trigger count. None of
// quiet ever fires under that seed.
func findFailSeed(t *testing.T, pt faultinject.Point, maxTrigger uint64, quiet ...faultinject.Point) (seed, trigger uint64) {
	t.Helper()
	defer faultinject.Deactivate()
	for s := uint64(0); s < 4096; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
		}
		if anyFires(quiet) {
			continue
		}
		for i := uint64(1); i <= maxTrigger; i++ {
			if faultinject.Fail(pt) != nil {
				return s, i
			}
		}
	}
	t.Fatalf("no seed in [0,4096) fires %s within %d hits — trigger derivation broken", pt, maxTrigger)
	return 0, 0
}

// findChaosSeed returns a seed whose plan turns on the pt chaos point
// from its very first invocation and never turns on any of quiet.
func findChaosSeed(t *testing.T, pt faultinject.Point, quiet ...faultinject.Point) uint64 {
	t.Helper()
	defer faultinject.Deactivate()
	for s := uint64(0); s < 4096; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
		}
		if faultinject.Chaos(pt) && !anyFires(quiet) {
			return s
		}
	}
	t.Fatalf("no seed in [0,4096) enables chaos at %s on the first hit and leaves %v off", pt, quiet)
	return 0
}

// anyFires reports whether any of pts fails or turns on within its
// largest possible trigger.
func anyFires(pts []faultinject.Point) bool {
	for _, p := range pts {
		for i := 0; i < 64; i++ {
			if faultinject.Fail(p) != nil || faultinject.Chaos(p) {
				return true
			}
		}
	}
	return false
}

// TestCacheRecordFaultPropagatesToWaiters: an injected recording fault
// fails the leader AND every coalesced waiter with the same typed
// error; the entry is withdrawn and the next call records cleanly.
func TestCacheRecordFaultPropagatesToWaiters(t *testing.T) {
	seed, trigger := findFailSeed(t, faultinject.CacheRecord, 32)
	defer leakCheck(t)()
	if err := faultinject.Activate(seed); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()

	c := New(0)
	// Burn hits on distinct keys so the gated recording below lands
	// exactly on the trigger-th invocation of tracecache/record.
	for i := uint64(1); i < trigger; i++ {
		src := &source{n: 10}
		if _, err := c.RecordCtx(context.Background(), fmt.Sprintf("burn%d", i), 0, 10, src.Source()); err != nil {
			t.Fatalf("burn recording %d failed early: %v", i, err)
		}
	}

	src := newGateSource(50, false)
	leaderDone := make(chan error, 1)
	go func() {
		_, err := c.RecordCtx(context.Background(), "victim", 0, 50, src.Source())
		leaderDone <- err
	}()
	<-src.entered
	const waiters = 3
	waiterDone := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			_, err := c.RecordCtx(context.Background(), "victim", 0, 50, src.Source())
			waiterDone <- err
		}()
	}
	for c.Stats().Coalesced < waiters {
		time.Sleep(time.Millisecond)
	}
	close(src.release)

	check := func(who string, err error) {
		t.Helper()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("%s got %v, want the injected fault", who, err)
		}
		var fe *faultinject.Error
		if !errors.As(err, &fe) || fe.Point != faultinject.CacheRecord {
			t.Fatalf("%s error %v lost its fault point", who, err)
		}
	}
	check("leader", <-leaderDone)
	for i := 0; i < waiters; i++ {
		select {
		case err := <-waiterDone:
			check(fmt.Sprintf("waiter %d", i), err)
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d never woke after the injected fault", i)
		}
	}
	if st := c.Stats(); uint64(st.Entries) != trigger-1 {
		t.Fatalf("faulted entry not withdrawn: %d entries, want %d", st.Entries, trigger-1)
	}
	// The fault fires exactly once; the retry records byte-identically.
	v, err := c.RecordCtx(context.Background(), "victim", 0, 50, src.Source())
	if err != nil {
		t.Fatalf("retry after injected fault: %v", err)
	}
	checkIdentity(t, drain(t, v))
}

// TestFailedCommitStaysOnHeap: a slice whose store file fails to
// commit (an injected StoreWrite fault) is the one slice a capped cache
// keeps on the heap. The replay is byte-identical and re-records
// nothing: the heap serves that slice, the spill store the others.
func TestFailedCommitStaysOnHeap(t *testing.T) {
	const slices = 8
	seed, trigger := findFailSeed(t, faultinject.StoreWrite, slices,
		faultinject.StoreRead, faultinject.StoreCorrupt, faultinject.CacheRecord)
	defer leakCheck(t)()
	if err := faultinject.Activate(seed); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()

	c := newCapped(t, 1, 10) // capped, no store attached: spills
	src := &source{n: 10 * slices}
	v := record(t, c, "w", 0, 10*slices, src.Source())
	// Each slice opens one store write, in slice order, so the
	// trigger-th write is slice trigger-1's.
	for i, onHeap := range heapSlices(c, v) {
		if want := i == int(trigger-1); onHeap != want {
			t.Fatalf("slice %d on the heap = %v, want %v (the write fault hit slice %d)", i, onHeap, want, trigger-1)
		}
	}
	for pass := 1; pass <= 2; pass++ {
		checkIdentity(t, drain(t, v))
	}
	st := c.Stats()
	if st.Slices != 1 || st.BytesInUse != 10*instBytes || st.SliceHits != 2 || st.DiskSliceHits != 2*(slices-1) {
		t.Fatalf("stats = %+v, want the failed slice on the heap (2 heap hits) and %d store hits", st, 2*(slices-1))
	}
	if st.SliceRerecords != 0 || src.records.Load() != 1 {
		t.Fatalf("stats = %+v, %d recordings; want one recording and no re-record", st, src.records.Load())
	}
}
