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
// from its very first invocation.
func findChaosSeed(t *testing.T, pt faultinject.Point) uint64 {
	t.Helper()
	defer faultinject.Deactivate()
	for s := uint64(0); s < 4096; s++ {
		if err := faultinject.Activate(s); err != nil {
			t.Fatal(err)
		}
		if faultinject.Chaos(pt) {
			return s
		}
	}
	t.Fatalf("no seed in [0,4096) enables chaos at %s on the first hit", pt)
	return 0
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

// TestCacheResumeFaultFallsBackByteIdentical: an injected resume fault
// degrades refills to the skim path — more skims, same bytes.
func TestCacheResumeFaultFallsBackByteIdentical(t *testing.T) {
	// The one-slice-cap replay below makes 7 resume-eligible refills
	// (slices at lo >= the first checkpoint), so the trigger must land
	// within them.
	seed, _ := findFailSeed(t, faultinject.CacheResume, 7)
	defer leakCheck(t)()

	replay := func() (vals []uint64, st Stats, resumes int64) {
		src := &ckptSource{source: source{n: 100}, every: 25}
		c := NewSliced(10*instBytes, 10) // one-slice cap: every pin refills
		v := record(t, c, "w", 0, 100, src.Source())
		return drain(t, v), c.Stats(), src.resumes.Load()
	}

	faultinject.Deactivate()
	clean, cleanStats, cleanResumes := replay()
	if cleanResumes == 0 {
		t.Fatal("baseline replay never resumed; the regime under test did not engage")
	}
	if err := faultinject.Activate(seed); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()
	faulted, faultedStats, faultedResumes := replay()

	if len(clean) != len(faulted) {
		t.Fatalf("faulted replay length %d != clean %d", len(faulted), len(clean))
	}
	for i := range clean {
		if clean[i] != faulted[i] {
			t.Fatalf("inst %d differs under resume fault: %d vs %d — wrong bytes", i, faulted[i], clean[i])
		}
	}
	if faultedResumes >= cleanResumes {
		t.Fatalf("resume fault never forced a fallback (resumes %d clean vs %d faulted)",
			cleanResumes, faultedResumes)
	}
	if faultedStats.SliceSkims <= cleanStats.SliceSkims {
		t.Fatalf("skim counter did not absorb the faulted resume (%d clean vs %d faulted)",
			cleanStats.SliceSkims, faultedStats.SliceSkims)
	}
	if faultedStats.SliceResumes+faultedStats.SliceSkims != faultedStats.SliceRerecords {
		t.Fatalf("refill accounting broke under fault: %+v", faultedStats)
	}
}

// TestCacheEvictChaosByteIdentical: the eviction chaos point drops
// every resident slice on each eviction pass — even in an uncapped
// cache — and replays stay byte-identical through the refill paths.
func TestCacheEvictChaosByteIdentical(t *testing.T) {
	seed := findChaosSeed(t, faultinject.CacheEvict)
	defer leakCheck(t)()
	if err := faultinject.Activate(seed); err != nil {
		t.Fatal(err)
	}
	defer faultinject.Deactivate()

	src := &ckptSource{source: source{n: 100}, every: 20}
	c := NewSliced(0, 10) // uncapped: only chaos can evict
	v := record(t, c, "w", 0, 100, src.Source())
	for pass := 0; pass < 2; pass++ {
		checkIdentity(t, drain(t, v))
	}
	st := c.Stats()
	if st.SliceEvictions == 0 {
		t.Fatal("chaos never evicted a slice from the uncapped cache")
	}
	if st.SliceRerecords == 0 {
		t.Fatal("chaos evictions never forced a refill")
	}
	if src.records.Load() != 1 {
		t.Fatalf("full recorder ran %d times, want 1 (refills must be slice-granular)", src.records.Load())
	}
}
