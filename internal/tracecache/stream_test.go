package tracecache_test

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"

	"branchlab/internal/engine"
	"branchlab/internal/program"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
	"branchlab/internal/workload"
)

// Streaming geometry: five slices of two chunks each (the last short),
// so a recording streams through several commits before it ends.
const (
	streamBudget = 300_000
	streamSlice  = 2 * program.ChunkInsts
)

// streamSpec returns the workload the streaming tests record and its
// uncached reference recording.
func streamSpec(t *testing.T) (*workload.Spec, []trace.Inst) {
	t.Helper()
	s, ok := workload.ByName("605.mcf_s")
	if !ok {
		t.Fatal("605.mcf_s is not registered")
	}
	buf, err := s.RecordCtx(context.Background(), 0, streamBudget)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]trace.Inst, 0, buf.Len())
	bs := buf.BlockStream(0)
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		want = append(want, blk...)
	}
	return s, want
}

// openStore opens a store over dir and attaches it to a fresh cache
// at the streaming slice length.
func openStore(t *testing.T, dir string) (*tracecache.Cache, *tracestore.Store) {
	t.Helper()
	st, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	c := tracecache.NewSliced(0, streamSlice)
	c.SetStore(st)
	return c, st
}

// glob lists the files matching pattern in any trace directory of dir.
func glob(t *testing.T, dir, pattern string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "*", pattern))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sameReplay drains tr and compares it with want.
func sameReplay(t *testing.T, tr trace.Replayable, want []trace.Inst) {
	t.Helper()
	i := 0
	bs := tr.BlockStream(0)
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for _, inst := range blk {
			if i >= len(want) || inst != want[i] {
				t.Fatalf("instruction %d differs from Spec.RecordCtx", i)
			}
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("replayed %d instructions, want %d", i, len(want))
	}
}

// A store-backed recording cancelled at a chunk boundary leaves the
// slices it committed, each verifying, and nothing else: no header (the
// trace reads as a clean miss) and no temp file. The next recording
// over that store completes it, byte-identical to an uncached
// recording, without a reject.
func TestStreamedRecordCancelAtChunkBoundary(t *testing.T) {
	s, want := streamSpec(t)
	dir := t.TempDir()
	c, st := openStore(t, dir)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inner := s.CacheSource(0, streamBudget, nil, 1, 0)
	src := inner
	src.Record = func(ctx context.Context, sliceLen uint64, sink program.SliceSink) ([][]trace.Inst, []program.Checkpoint, error) {
		return inner.Record(ctx, sliceLen, func(slice int, chunk []trace.Inst, last bool) {
			sink(slice, chunk, last)
			if slice != 2 || ctx.Err() != nil {
				return
			}
			// The first chunk of slice 2: once the writer has committed
			// slices 0 and 1 and opened slice 2's temp file, cancel, so
			// the recording unwinds at this chunk's end.
			deadline := time.Now().Add(10 * time.Second)
			for len(glob(t, dir, "s00000[01]")) < 2 || len(glob(t, dir, "tmp-*")) < 1 {
				if time.Now().After(deadline) {
					t.Error("slices 0 and 1 were never committed, or slice 2 never opened")
					break
				}
				time.Sleep(time.Millisecond)
			}
			cancel()
		})
	}
	if _, err := c.RecordCtx(ctx, s.Name, 0, streamBudget, src); !engine.IsCancel(err) {
		t.Fatalf("RecordCtx = %v, want a cancellation", err)
	}
	if h := glob(t, dir, "header"); len(h) != 0 {
		t.Fatalf("a cancelled recording wrote its header: %v", h)
	}
	if tmp := glob(t, dir, "tmp-*"); len(tmp) != 0 {
		t.Fatalf("a cancelled recording left temp files: %v", tmp)
	}
	committed := glob(t, dir, "s*")
	if len(committed) != 2 {
		t.Fatalf("committed slices %v, want slices 0 and 1", committed)
	}
	key := tracestore.Key{Name: s.Name, Input: 0, Budget: streamBudget, SliceLen: streamSlice}
	for idx := range committed {
		p, err := st.PinSlice(key, idx, streamSlice)
		if err != nil {
			t.Fatalf("committed slice %d does not verify: %v", idx, err)
		}
		lo := idx * streamSlice
		for i, inst := range p.PinnedInsts() {
			if inst != want[lo+i] {
				t.Fatalf("committed slice %d instruction %d differs from Spec.RecordCtx", idx, i)
			}
		}
		p.Unpin()
	}

	c2, st2 := openStore(t, dir)
	v, err := c2.RecordCtx(context.Background(), s.Name, 0, streamBudget, s.CacheSource(0, streamBudget, nil, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sameReplay(t, v, want)
	if cs, ss := c2.Stats(), st2.Stats(); cs.Misses != 1 || cs.DiskRejects != 0 || ss.Rejects != 0 || ss.WriteSkips != 2 || ss.SliceWrites != 3 {
		t.Fatalf("completing run: cache %+v, store %+v; want 1 recording, 0 rejects, 2 skipped and 3 written slices", cs, ss)
	}
	c3, _ := openStore(t, dir)
	v, err = c3.RecordCtx(context.Background(), s.Name, 0, streamBudget, s.CacheSource(0, streamBudget, nil, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	sameReplay(t, v, want)
	if cs := c3.Stats(); cs.Misses != 0 || cs.DiskHeaderHits != 1 || cs.DiskSliceHits != 5 {
		t.Fatalf("warm run: %+v, want 0 recordings, the header and 5 slices from disk", cs)
	}
}

// storeFiles maps each file under dir, by relative path, to its bytes.
func storeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Streaming is invisible on disk: a Source that hands its chunks to the
// sink, one that does so from several shards at once, and one that
// returns all its slices only at the end leave the same files with the
// same bytes.
func TestStreamingAndBatchSourcesStoreSameFiles(t *testing.T) {
	s, want := streamSpec(t)
	streaming := s.CacheSource(0, streamBudget, nil, 1, 0)
	sharded := s.CacheSource(0, streamBudget, engine.New(3), 3, 0)
	batch := streaming
	batch.Record = func(ctx context.Context, sliceLen uint64, _ program.SliceSink) ([][]trace.Inst, []program.Checkpoint, error) {
		return streaming.Record(ctx, sliceLen, nil)
	}
	var trees []map[string]string
	for _, src := range []tracecache.Source{streaming, sharded, batch} {
		dir := t.TempDir()
		c, st := openStore(t, dir)
		v, err := c.RecordCtx(context.Background(), s.Name, 0, streamBudget, src)
		if err != nil {
			t.Fatal(err)
		}
		sameReplay(t, v, want)
		if ss := st.Stats(); ss.SliceWrites != 5 || ss.HeaderWrites != 1 {
			t.Fatalf("store %+v, want 5 slices and a header written", ss)
		}
		trees = append(trees, storeFiles(t, dir))
	}
	for i, tree := range trees {
		if len(tree) != 6 {
			t.Fatalf("source %d stored %d files, want 6", i, len(tree))
		}
		for path, b := range trees[0] {
			if tree[path] != b {
				t.Fatalf("%s differs between source 0 and source %d", path, i)
			}
		}
	}
}
