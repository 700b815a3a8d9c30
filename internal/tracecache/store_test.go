package tracecache

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"branchlab/internal/tracestore"
)

// withStore opens a store over dir and attaches it to a fresh cache.
func withStore(t *testing.T, dir string, maxBytes int64, sliceInsts uint64) (*Cache, *tracestore.Store) {
	t.Helper()
	st, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	c := NewSliced(maxBytes, sliceInsts)
	c.SetStore(st)
	return c, st
}

// storedSliceFiles returns every slice file under the store directory.
func storedSliceFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasPrefix(d.Name(), "s") {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreWarmRestartZeroRecordings is the tentpole invariant: a
// second process (a fresh cache over the same store directory) serves
// the same content with zero recordings and zero re-records — header
// and every slice come from disk, byte-identical.
func TestStoreWarmRestartZeroRecordings(t *testing.T) {
	dir := t.TempDir()

	cold := &source{n: 100}
	c1, st1 := withStore(t, dir, 0, 25)
	checkIdentity(t, drain(t, record(t, c1, "w", 0, 100, cold.Source())))
	if got := cold.records.Load(); got != 1 {
		t.Fatalf("cold run recorded %d times, want 1", got)
	}
	if w := st1.Stats().SliceWrites; w != 4 {
		t.Fatalf("cold run wrote %d slices through, want 4", w)
	}
	st1.Close()

	// The restart: fresh cache, fresh store handle, same directory.
	warm := &source{n: 100}
	c2, st2 := withStore(t, dir, 0, 25)
	checkIdentity(t, drain(t, record(t, c2, "w", 0, 100, warm.Source())))
	if got := warm.records.Load(); got != 0 {
		t.Fatalf("warm run recorded %d times, want 0", got)
	}
	cs := c2.Stats()
	if cs.Misses != 0 || cs.SliceRerecords != 0 || cs.DiskHeaderHits != 1 || cs.DiskSliceHits != 4 {
		t.Fatalf("warm stats = %+v, want 0 misses, 1 disk header, 4 disk slices", cs)
	}
	ss := st2.Stats()
	if ss.SliceWrites != 0 || ss.SliceHits != 4 || ss.HeaderHits != 1 {
		t.Fatalf("warm store stats = %+v, want pure hits, no writes", ss)
	}
}

// TestStoreDemoteThenPromote pins the serving rule inside one process:
// the recording persists every slice, the heap keeps none of them, and
// every replay walks entirely through the store.
func TestStoreDemoteThenPromote(t *testing.T) {
	src := &source{n: 100}
	c, _ := withStore(t, t.TempDir(), 25*instBytes, 25)
	v := record(t, c, "w", 0, 100, src.Source())
	checkIdentity(t, drain(t, v))
	checkIdentity(t, drain(t, v))
	if got := src.records.Load(); got != 1 {
		t.Fatalf("recorded %d times despite the store tier, want 1", got)
	}
	st := c.Stats()
	if st.DiskSliceHits != 8 || st.SliceHits != 0 || st.Slices != 0 {
		t.Fatalf("stats = %+v, want 8 store hits and nothing on the heap", st)
	}
	if st.SliceRerecords != 0 {
		t.Fatalf("stats = %+v, want 0 re-records", st)
	}
}

// TestStoreCorruptionFallsBackByteIdentically is the corruption drill:
// flip a byte in a stored slice between processes; the warm run must
// reject the file and re-record identical bytes.
func TestStoreCorruptionFallsBackByteIdentically(t *testing.T) {
	dir := t.TempDir()
	cold := &source{n: 100}
	c1, st1 := withStore(t, dir, 0, 25)
	want := drain(t, record(t, c1, "w", 0, 100, cold.Source()))
	st1.Close()

	files := storedSliceFiles(t, dir)
	if len(files) != 4 {
		t.Fatalf("stored %d slice files, want 4", len(files))
	}
	b, err := os.ReadFile(files[2])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x40
	if err := os.WriteFile(files[2], b, 0o644); err != nil {
		t.Fatal(err)
	}

	warm := &source{n: 100}
	c2, _ := withStore(t, dir, 0, 25)
	got := drain(t, record(t, c2, "w", 0, 100, warm.Source()))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte divergence at inst %d after corruption fallback", i)
		}
	}
	cs := c2.Stats()
	if cs.DiskRejects != 1 {
		t.Fatalf("stats = %+v, want exactly 1 disk reject", cs)
	}
	// Slices 0 and 1 come from the store; slice 2's reject re-records
	// the trace, which stays on the heap and also serves slice 3.
	if cs.DiskSliceHits != 2 || cs.SliceRerecords != 1 || cs.SliceHits != 1 || cs.Slices != 4 {
		t.Fatalf("stats = %+v, want 2 store hits + 1 re-record serving the rest from the heap", cs)
	}
	// The re-record wrote the healthy bytes back: a third process
	// serves everything from the store again.
	again := &source{n: 100}
	c3, _ := withStore(t, dir, 0, 25)
	checkIdentity(t, drain(t, record(t, c3, "w", 0, 100, again.Source())))
	if c3.Stats().DiskSliceHits != 4 {
		t.Fatal("re-recorded slice was not written back to the store")
	}
}

// TestStoreCorruptHeaderFallsBack covers the other file kind: a
// corrupted header is rejected, the trace re-records, and the header is
// re-persisted.
func TestStoreCorruptHeaderFallsBack(t *testing.T) {
	dir := t.TempDir()
	cold := &source{n: 100}
	c1, st1 := withStore(t, dir, 0, 25)
	drain(t, record(t, c1, "w", 0, 100, cold.Source()))
	st1.Close()

	var header string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == "header" {
			header = path
		}
		return nil
	})
	if header == "" {
		t.Fatal("no header stored")
	}
	b, _ := os.ReadFile(header)
	b[len(b)/2] ^= 0x01
	os.WriteFile(header, b, 0o644)

	warm := &source{n: 100}
	c2, st2 := withStore(t, dir, 0, 25)
	checkIdentity(t, drain(t, record(t, c2, "w", 0, 100, warm.Source())))
	if got := warm.records.Load(); got != 1 {
		t.Fatalf("header reject must force a recording, got %d", got)
	}
	if c2.Stats().DiskRejects != 1 {
		t.Fatalf("stats = %+v, want 1 disk reject", c2.Stats())
	}
	if st2.Stats().HeaderWrites != 1 {
		t.Fatal("recovered header was not re-persisted")
	}
}

// TestStoreWholeTraceGranularity exercises the store under a cache with
// slice granularity 0 (single-slice entries).
func TestStoreWholeTraceGranularity(t *testing.T) {
	dir := t.TempDir()
	cold := &source{n: 80}
	c1, _ := withStore(t, dir, 0, 0)
	checkIdentity(t, drain(t, record(t, c1, "w", 0, 80, cold.Source())))

	warm := &source{n: 80}
	c2, _ := withStore(t, dir, 0, 0)
	checkIdentity(t, drain(t, record(t, c2, "w", 0, 80, warm.Source())))
	if warm.records.Load() != 0 {
		t.Fatal("whole-trace entry did not warm-start from the store")
	}
}

// TestStoreKeySeparatesGeometry: the same workload recorded at a
// different slice length or budget is different stored content — a
// warm lookup under changed geometry must miss, not serve wrong-shaped
// slices.
func TestStoreKeySeparatesGeometry(t *testing.T) {
	dir := t.TempDir()
	a := &source{n: 100}
	c1, _ := withStore(t, dir, 0, 25)
	drain(t, record(t, c1, "w", 0, 100, a.Source()))

	b := &source{n: 100}
	c2, _ := withStore(t, dir, 0, 50) // different slice geometry
	checkIdentity(t, drain(t, record(t, c2, "w", 0, 100, b.Source())))
	if b.records.Load() != 1 {
		t.Fatal("changed slice geometry served the old store content")
	}

	d := &source{n: 60}
	c3, _ := withStore(t, dir, 0, 25) // same geometry, different budget
	checkIdentity(t, drain(t, record(t, c3, "w", 0, 60, d.Source())))
	if d.records.Load() != 1 {
		t.Fatal("changed budget served the old store content")
	}
}

// TestStoreConcurrentPromoteDemote hammers store serving from many
// goroutines — the -race companion to the byte-identity checks. Every
// goroutine drains full replays while its streams pin and unpin the
// same slice mappings as the others, and every value must still be
// exact.
func TestStoreConcurrentPromoteDemote(t *testing.T) {
	src := &source{n: 256}
	c, _ := withStore(t, t.TempDir(), 32*instBytes, 16)
	v := record(t, c, "w", 0, 256, src.Source())
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				i := 0
				s := v.BlockStream(0)
				for blk := s.NextBlock(); len(blk) > 0; blk = s.NextBlock() {
					for _, inst := range blk {
						if inst.DstValue != uint64(i) {
							errs <- fmt.Sprintf("rep %d inst %d: got %d", rep, i, inst.DstValue)
							return
						}
						i++
					}
				}
				if i != 256 {
					errs <- fmt.Sprintf("rep %d: short replay (%d insts)", rep, i)
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
	if st := c.Stats(); st.DiskSliceHits != 8*4*16 || st.Slices != 0 {
		t.Fatalf("stats = %+v, want every slice pin served by the store", st)
	}
}
