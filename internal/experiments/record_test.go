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

// TestRecordTraceNilCacheByteIdentical: without a cache, RecordTrace
// records tracecache.DefaultSliceInsts slices and joins them, and the
// result must be byte-identical to a plain sequential recording.
func TestRecordTraceNilCacheByteIdentical(t *testing.T) {
	cfg := quickCfg()
	cfg.Budget = 4 * tracecache.DefaultSliceInsts
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

// TestStoreHealsDamagedQuickTrace: a Quick trace recorded cold into a
// store warm-serves a fresh cache with zero recordings; a stored slice
// that fails verification makes the cache re-record the trace once,
// still byte-identical to an uncached recording, and the re-record
// rewrites the file so the next cache serves every slice from the store again.
func TestStoreHealsDamagedQuickTrace(t *testing.T) {
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
	run := func() tracecache.Stats {
		t.Helper()
		st, err := tracestore.Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		c := tracecache.NewSliced(0, sliceLen)
		c.SetStore(st)
		v, err := c.RecordCtx(ctx, s.Name, 0, budget, s.Source(0, budget))
		if err != nil {
			t.Fatal(err)
		}
		if v.Len() != want.Len() {
			t.Fatalf("length %d, want %d", v.Len(), want.Len())
		}
		i := 0
		bs := v.BlockStream(0)
		for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
			for _, inst := range blk {
				if inst != want.At(i) {
					t.Fatalf("instruction %d differs from RecordCtx", i)
				}
				i++
			}
		}
		return c.Stats()
	}

	if cs := run(); cs.Misses != 1 {
		t.Fatalf("cold run: %d recordings, want 1", cs.Misses)
	}
	if cs := run(); cs.Misses != 0 || cs.DiskHeaderHits != 1 || cs.SliceRerecords != 0 {
		t.Fatalf("warm run: %+v, want 0 recordings, 1 restored header, 0 re-records", cs)
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
	if cs := run(); cs.Misses != 0 || cs.DiskRejects != 1 || cs.SliceRerecords != 1 {
		t.Fatalf("warm run over a damaged slice: %+v, want 0 recordings, 1 reject, 1 re-record", cs)
	}
	if cs := run(); cs.SliceRerecords != 0 || cs.DiskRejects != 0 || cs.DiskSliceHits != uint64(len(slices)) {
		t.Fatalf("warm run after the heal: %+v, want every slice served from the store", cs)
	}
}

// quickTraces lists every (workload, input) trace the registry records
// at Quick: each SPECint-like workload at its first MaxInputs inputs,
// each LCF workload at input 0, and the inputs the cnn driver evaluates
// its helpers on.
func quickTraces(cfg Config) []traceRef {
	var refs []traceRef
	has := func(r traceRef) bool {
		for _, x := range refs {
			if x == r {
				return true
			}
		}
		return false
	}
	for _, s := range workload.SPECint2017Like() {
		for in := 0; in < min(s.NumInputs, cfg.MaxInputs); in++ {
			refs = append(refs, traceRef{s, in})
		}
	}
	for _, s := range workload.LCFLike() {
		refs = append(refs, traceRef{s, 0})
	}
	for _, name := range cnnBenchmarks {
		s, _ := workload.ByName(name)
		if r := (traceRef{s, 2 % s.NumInputs}); !has(r) {
			refs = append(refs, r)
		}
	}
	return refs
}

// traceRef names one recorded trace.
type traceRef struct {
	spec  *workload.Spec
	input int
}

// BenchmarkStoreFill records the registry's Quick traces through one
// uncapped cache, one after the other: store=off keeps them in RAM
// only, store=on also writes them into a fresh trace store — a cold
// store fill. The difference is what the store's write-through costs
// the recording path.
func BenchmarkStoreFill(b *testing.B) {
	cfg := Quick()
	refs := quickTraces(cfg)
	for _, mode := range []string{"off", "on"} {
		b.Run("store="+mode, func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var st *tracestore.Store
				dir := filepath.Join(b.TempDir(), "store")
				if mode == "on" {
					var err error
					if st, err = tracestore.Open(dir, 0); err != nil {
						b.Fatal(err)
					}
				}
				c := cfg
				c.Store = st
				c.Cache = c.NewCache(0)
				b.StartTimer()
				for _, r := range refs {
					if _, err := c.RecordTrace(ctx, r.spec, r.input); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if cs := c.Cache.Stats(); cs.Misses != uint64(len(refs)) {
					b.Fatalf("recorded %d traces, want %d", cs.Misses, len(refs))
				}
				st.Close()
				os.RemoveAll(dir)
				b.StartTimer()
			}
		})
	}
}
