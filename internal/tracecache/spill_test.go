package tracecache

import (
	"context"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestCappedCacheSpillsToPrivateStore: a capped cache with no store
// opens a private spill store the first time it records, an uncapped one
// never does, and Close removes the spill store's directory.
func TestCappedCacheSpillsToPrivateStore(t *testing.T) {
	ram := NewSliced(0, 10)
	record(t, ram, "w", 0, 100, (&source{n: 100}).Source())
	if ram.spill != nil || ram.store != nil {
		t.Fatal("an uncapped cache opened a spill store")
	}

	c := NewSliced(20*instBytes, 10)
	if c.spill != nil {
		t.Fatal("the spill store opened before the first recording")
	}
	src := &source{n: 100}
	v := record(t, c, "w", 0, 100, src.Source())
	if c.spill == nil || c.store != c.spill {
		t.Fatal("a capped cache recorded without opening its spill store")
	}
	checkIdentity(t, drain(t, v))
	st := c.Stats()
	if st.Misses != 1 || st.SliceRerecords != 0 || st.DiskSliceHits != 10 || st.Slices != 0 {
		t.Fatalf("stats = %+v, want 1 recording, 10 store hits, no re-record, nothing on the heap", st)
	}
	dir := c.spill.Dir()
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Close left %s (stat: %v)", dir, err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilCache *Cache
	if err := nilCache.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestCorruptSliceSharesOneRerecord: concurrent replays that all reach
// a stored slice damaged on disk share one whole-trace re-record, which
// heals the file, and replay byte-identically.
func TestCorruptSliceSharesOneRerecord(t *testing.T) {
	dir := t.TempDir()
	c1, st1 := withStore(t, dir, 0, 25)
	drain(t, record(t, c1, "w", 0, 100, (&source{n: 100}).Source()))
	st1.Close()
	files := storedSliceFiles(t, dir)
	if len(files) != 4 {
		t.Fatalf("stored %d slice files, want 4", len(files))
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := &source{n: 100}
	c2, _ := withStore(t, dir, 0, 25)
	v := record(t, c2, "w", 0, 100, warm.Source())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
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
	if cs := c2.Stats(); cs.SliceRerecords != 1 || cs.DiskRejects != 1 || cs.Misses != 0 || warm.records.Load() != 1 {
		t.Fatalf("stats = %+v, %d recordings; want 1 reject served by 1 shared re-record", cs, warm.records.Load())
	}
	// The re-record rewrote the damaged file: a third cache serves
	// every slice from the store.
	c3, _ := withStore(t, dir, 1, 25)
	checkIdentity(t, drain(t, record(t, c3, "w", 0, 100, (&source{n: 100}).Source())))
	if cs := c3.Stats(); cs.DiskSliceHits != 4 || cs.SliceRerecords != 0 {
		t.Fatalf("stats = %+v, want 4 store hits on the healed store", cs)
	}
}

// TestDamagedSiblingsShareOneRerecord: when every stored slice of a
// trace is damaged, the first reject re-records the trace once, and the
// re-recorded arrays serve the damaged siblings from the heap: two
// replays cost one reject and one re-record, and read the store once.
func TestDamagedSiblingsShareOneRerecord(t *testing.T) {
	dir := t.TempDir()
	c1, st1 := withStore(t, dir, 0, 25)
	drain(t, record(t, c1, "w", 0, 100, (&source{n: 100}).Source()))
	st1.Close()
	files := storedSliceFiles(t, dir)
	if len(files) != 4 {
		t.Fatalf("stored %d slice files, want 4", len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0x01
		if err := os.WriteFile(f, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := &source{n: 100}
	c2, _ := withStore(t, dir, 0, 25)
	v := record(t, c2, "w", 0, 100, warm.Source())
	for pass := 0; pass < 2; pass++ {
		checkIdentity(t, drain(t, v))
	}
	cs := c2.Stats()
	if cs.DiskRejects != 1 || cs.SliceRerecords != 1 || warm.records.Load() != 1 {
		t.Fatalf("stats = %+v, %d recordings; want 1 reject served by 1 re-record", cs, warm.records.Load())
	}
	// The re-record hands slice 0 to its caller; the heap serves the
	// other 3 slices of the first replay and all 4 of the second.
	if cs.Slices != 4 || cs.SliceHits != 7 || cs.DiskSliceHits != 0 {
		t.Fatalf("stats = %+v, want the re-recorded trace on the heap serving 7 reads", cs)
	}
}

// TestEvictionRacingCommitNeverRerecords: a recording is published only
// once its slices' store files are committed, so a coalesced caller
// that replays the moment a recording is published always finds its
// slices on disk and never re-records.
func TestEvictionRacingCommitNeverRerecords(t *testing.T) {
	const (
		traces  = 6
		callers = 4
		n       = 1 << 16
	)
	c := newCapped(t, 1<<12*instBytes, 1<<12)
	srcs := make([]*source, traces)
	for i := range srcs {
		srcs[i] = &source{n: n}
	}
	var wg sync.WaitGroup
	for i := 0; i < traces; i++ {
		for j := 0; j < callers; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := c.RecordCtx(context.Background(), fmt.Sprintf("w%d", i), 0, n, srcs[i].Source())
				if err != nil {
					t.Error(err)
					return
				}
				for k, val := range values(v) {
					if val != uint64(k) {
						t.Errorf("trace %d inst %d = %d", i, k, val)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	st := c.Stats()
	if st.Misses != traces || st.SliceRerecords != 0 || st.Slices != 0 {
		t.Fatalf("stats = %+v, want %d misses, no re-record and nothing on the heap", st, traces)
	}
	for i, src := range srcs {
		if src.records.Load() != 1 {
			t.Fatalf("trace %d recorded %d times, want 1", i, src.records.Load())
		}
	}
}

// TestCappedCacheReplaysByteIdentical: a capped cache with no store
// spills every trace to its private store and serves every replay from
// it byte-identically: each trace records once and nothing re-records.
// Close removes the spill directory.
func TestCappedCacheReplaysByteIdentical(t *testing.T) {
	c := NewSliced(1<<20, 10) // capped, no store attached
	srcs := []*source{{n: 100}, {n: 55}, {n: 10}}
	for pass := 0; pass < 2; pass++ {
		for i, src := range srcs {
			v := record(t, c, fmt.Sprintf("w%d", i), 0, uint64(src.n), src.Source())
			checkIdentity(t, drain(t, v))
		}
	}
	st := c.Stats()
	if st.DiskSliceHits != 2*(10+6+1) || st.Slices != 0 {
		t.Fatalf("stats = %+v: want every slice served from the spill store, none on the heap", st)
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
