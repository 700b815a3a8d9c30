//go:build faultinject

package tracecache

import (
	"context"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"branchlab/internal/faultinject"
)

// findFailSeed returns a seed arming pt as a Fail point with a trigger
// no later than maxTrigger invocations, plus that trigger count.
func findFailSeed(t *testing.T, pt faultinject.Point, maxTrigger uint64) (seed, trigger uint64) {
	t.Helper()
	defer faultinject.Deactivate()
	for s := uint64(0); s < 4096; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
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
		if faultinject.Chaos(pt) && !anyChaos(quiet) {
			return s
		}
	}
	t.Fatalf("no seed in [0,4096) enables chaos at %s on the first hit and leaves %v off", pt, quiet)
	return 0
}

// anyChaos reports whether any of pts turns on within its largest
// possible trigger.
func anyChaos(pts []faultinject.Point) bool {
	for _, p := range pts {
		for i := 0; i < 64; i++ {
			if faultinject.Chaos(p) {
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

// TestCacheEvictChaosByteIdentical: the eviction chaos point drops
// every stored resident slice on each eviction pass. A capped cache
// with no store spills to its private store, so replays stay
// byte-identical through store promotion: every trace records once and
// nothing re-records. Close removes the spill directory.
func TestCacheEvictChaosByteIdentical(t *testing.T) {
	seed := findChaosSeed(t, faultinject.CacheEvict, faultinject.StoreCorrupt)
	defer leakCheck(t)()
	if err := faultinject.Activate(seed); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()

	c := NewSliced(1<<20, 10) // capped, no store attached
	srcs := []*source{{n: 100}, {n: 55}, {n: 10}}
	for pass := 0; pass < 2; pass++ {
		for i, src := range srcs {
			v := record(t, c, fmt.Sprintf("w%d", i), 0, uint64(src.n), src.Source())
			checkIdentity(t, drain(t, v))
		}
	}
	st := c.Stats()
	if st.SliceEvictions == 0 || st.DiskSliceHits == 0 {
		t.Fatalf("stats = %+v: chaos never evicted and promoted a slice", st)
	}
	if st.Misses != uint64(len(srcs)) || st.SliceRerecords != 0 {
		t.Fatalf("stats = %+v, want %d misses and no re-record", st, len(srcs))
	}
	for i, src := range srcs {
		if src.records.Load() != 1 {
			t.Fatalf("trace %d recorded %d times, want 1", i, src.records.Load())
		}
	}
	dir := c.spill.Dir()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Close left the spill directory %s (stat: %v)", dir, err)
	}
}
