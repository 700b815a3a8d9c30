package experiments

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
	"branchlab/internal/workload"
)

// TestRecordTraceNilCacheShardedByteIdentical: without a cache,
// RecordTrace still records sharded — RecordShards workers over
// tracecache.DefaultSliceInsts slices — and the joined slices must be
// byte-identical to a plain sequential recording.
func TestRecordTraceNilCacheShardedByteIdentical(t *testing.T) {
	cfg := quickCfg()
	cfg.Budget = 4 * tracecache.DefaultSliceInsts // four slices: one per shard
	cfg.Workers = 4
	cfg.RecordShards = 4
	for _, s := range []*workload.Spec{workload.SPECint2017Like()[0], workload.LCFLike()[0]} {
		want, err := s.RecordCtx(context.Background(), 0, cfg.Budget)
		if err != nil {
			t.Fatal(err)
		}
		got := mustRecord(t, cfg, s, 0)
		if got.Len() != want.Len() {
			t.Fatalf("%s: length %d, want %d", s.Name, got.Len(), want.Len())
		}
		i := 0
		st := got.BlockStream(0)
		for blk := st.NextBlock(); len(blk) > 0; blk = st.NextBlock() {
			for _, inst := range blk {
				if inst != want.At(i) {
					t.Fatalf("%s: instruction %d differs from RecordCtx", s.Name, i)
				}
				i++
			}
		}
	}
}

// TestStoreServesQuickTraceAtAnyCheckpointSpacing: the trace store
// keeps instruction bytes and extent only, so a trace recorded cold
// with one checkpoint per 64Ki-instruction slice warm-serves a cache
// whose source captures no checkpoints — zero recordings — and a stored
// slice that fails verification refills by skim, because a restored
// entry carries no checkpoints to resume from, still byte-identical to
// an uncached recording.
func TestStoreServesQuickTraceAtAnyCheckpointSpacing(t *testing.T) {
	const sliceLen = 1 << 16
	ctx := context.Background()
	budget := Quick().Budget
	s, ok := workload.ByName("605.mcf_s")
	if !ok {
		t.Fatal("605.mcf_s is not registered")
	}
	want, err := s.RecordCtx(ctx, 0, budget)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// run serves the trace through a fresh cache over a fresh handle on
	// dir, drains it against want and returns the cache's counters.
	run := func(ckptEvery uint64) tracecache.Stats {
		t.Helper()
		st, err := tracestore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		c := tracecache.NewSliced(0, sliceLen)
		c.SetStore(st)
		v, err := c.RecordCtx(ctx, s.Name, 0, budget, s.CacheSource(0, budget, nil, 1, ckptEvery))
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != want.Len() {
			t.Fatalf("spacing %d: length %d, want %d", ckptEvery, v.Len(), want.Len())
		}
		i := 0
		bs := v.BlockStream(0)
		for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
			for _, inst := range blk {
				if inst != want.At(i) {
					t.Fatalf("spacing %d: instruction %d differs from RecordCtx", ckptEvery, i)
				}
				i++
			}
		}
		return c.Stats()
	}

	if cs := run(sliceLen); cs.Misses != 1 {
		t.Fatalf("cold run: %d recordings, want 1", cs.Misses)
	}
	if cs := run(0); cs.Misses != 0 || cs.DiskHeaderHits != 1 || cs.SliceRerecords != 0 {
		t.Fatalf("warm run without checkpoints: %+v, want 0 recordings, 1 restored header, 0 refills", cs)
	}

	slices, err := filepath.Glob(filepath.Join(dir, "*", "s*"))
	if err != nil || len(slices) != int((budget+sliceLen-1)/sliceLen) {
		t.Fatalf("stored slice files %v (err %v), want one per slice", slices, err)
	}
	last := slices[len(slices)-1]
	b, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(last, b, 0o644); err != nil {
		t.Fatal(err)
	}
	cs := run(sliceLen)
	if cs.Misses != 0 || cs.DiskRejects != 1 || cs.SliceSkims != 1 || cs.SliceResumes != 0 {
		t.Fatalf("warm run over a damaged slice: %+v, want 0 recordings, 1 reject, 1 skim, 0 resumes", cs)
	}
}
