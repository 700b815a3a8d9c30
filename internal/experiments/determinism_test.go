package experiments

import (
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
)

// instBytes mirrors the cache's per-instruction accounting unit.
const instBytes = int64(unsafe.Sizeof(trace.Inst{}))

// The engine's contract is that a parallel run merges work-unit results
// in submission order, so the rendered artifact of every experiment is
// byte-identical to a 1-worker run. fig5 exercises the trace-sharing
// IPC sweeps, table3 the per-benchmark analysis units, alloc the
// telemetry read from the shared 8KB pass, and cnn the two-stage
// driver whose units run in a different order at every worker count.

func parallelWorkers() int {
	if n := runtime.NumCPU(); n > 1 {
		return n
	}
	// On a single-core host goroutine interleaving still exercises the
	// scheduler's merge paths.
	return 4
}

func TestParallelArtifactsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	for _, id := range []string{"fig5", "table3", "alloc", "cnn"} {
		t.Run(id, func(t *testing.T) {
			r, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not found", id)
			}
			seq := quickCfg()
			seq.Workers = 1
			par := quickCfg()
			par.Workers = parallelWorkers()
			want := mustRun(t, r.Run, seq).String()
			got := mustRun(t, r.Run, par).String()
			if want != got {
				t.Errorf("parallel artifact differs from sequential:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
					want, par.Workers, got)
			}
		})
	}
}

// The trace cache's contract is that serving a recording from memory —
// including coalescing concurrent recordings and replaying one buffer
// across drivers — cannot change any artifact byte. This runs the full
// registry (`-run all`) three ways: uncached sequential, cached
// sequential, cached parallel; all three renderings must be identical,
// and the cached runs must have recorded each (workload, input) exactly
// once (misses == resident entries, no evictions, every other request a
// hit) — the invocation-level dedup the cache exists to provide.
func TestCacheRunAllByteIdenticalAndRecordsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := quickCfg()
	cfg.Budget = 100_000
	cfg.SliceLen = 50_000

	runAll := func(t testing.TB, cfg Config) string {
		var b strings.Builder
		for _, r := range All() {
			b.WriteString(mustRun(t, r.Run, cfg).String())
			b.WriteByte('\n')
		}
		return b.String()
	}

	uncached := cfg
	uncached.Workers = 1
	want := runAll(t, uncached)

	for _, tc := range []struct {
		name    string
		workers int
		shards  int
	}{
		{"cache/workers=1", 1, 0},
		{"cache/parallel", parallelWorkers(), 0},
		// Sharded recording must leave every artifact byte untouched:
		// the recordings it produces are byte-identical to sequential.
		{"cache/parallel/recshards", parallelWorkers(), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cached := cfg
			cached.Workers = tc.workers
			cached.RecordShards = tc.shards
			cached.Cache = tracecache.New(0)
			if got := runAll(t, cached); got != want {
				t.Errorf("cached artifacts differ from uncached (workers=%d)", tc.workers)
			}
			st := cached.Cache.Stats()
			if st.SliceEvictions != 0 {
				t.Fatalf("unbounded cache evicted %d slices", st.SliceEvictions)
			}
			if st.Misses != uint64(st.Entries) {
				t.Errorf("recorded %d traces for %d distinct (workload, input) keys: some trace was recorded more than once",
					st.Misses, st.Entries)
			}
			if st.Hits+st.Coalesced == 0 {
				t.Error("cache served no repeat requests; drivers are not recording through it")
			}
			if st.MemoHits == 0 {
				t.Error("memo served no repeat screenings/IPC cells; drivers are not memoizing derived results")
			}
		})
	}
}

// Slice-granular eviction must also be byte-invisible: a cache capped
// far below one trace's footprint, at a slice size that splits every
// trace, serves every driver re-materialized slices — and the full
// registry output must still match the uncached reference, with the
// memoized derived results computed from those re-materialized inputs.
func TestSliceEvictionRunAllByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	cfg := quickCfg()
	cfg.Budget = 100_000
	cfg.SliceLen = 50_000

	runAll := func(t testing.TB, cfg Config) string {
		var b strings.Builder
		for _, r := range All() {
			b.WriteString(mustRun(t, r.Run, cfg).String())
			b.WriteByte('\n')
		}
		return b.String()
	}

	uncached := cfg
	uncached.Workers = 1
	want := runAll(t, uncached)

	for _, tc := range []struct {
		name       string
		capInsts   int64 // cap in instructions' worth of slice bytes
		sliceInsts uint64
		ckptInsts  uint64 // checkpoint spacing (0 = skim-only refills)
		workers    int
	}{
		{"cap=2slices/slice=25k", 50_000, 25_000, 0, 1},
		{"cap=1slice/slice=40k", 40_000, 40_000, 0, 1},
		{"cap=2slices/slice=25k/parallel", 50_000, 25_000, 0, parallelWorkers()},
		// Checkpointed refills: resume-from-checkpoint must be as
		// byte-invisible as the skim path it replaces, at a spacing
		// matching the slice size and at an unaligned one.
		{"cap=2slices/slice=25k/ckpt=25k", 50_000, 25_000, 25_000, 1},
		{"cap=2slices/slice=25k/ckpt=10k/parallel", 50_000, 25_000, 10_000, parallelWorkers()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capped := cfg
			capped.Workers = tc.workers
			capped.CacheSlice = tc.sliceInsts
			capped.CkptSlice = tc.ckptInsts
			capped.Cache = tracecache.NewSliced(tc.capInsts*instBytes, tc.sliceInsts)
			if got := runAll(t, capped); got != want {
				t.Errorf("capped slice-cache artifacts differ from uncached reference")
			}
			st := capped.Cache.Stats()
			if st.SliceEvictions == 0 || st.SliceRerecords == 0 {
				t.Fatalf("cap forced no slice eviction/re-record (stats %+v); the regime under test did not engage", st)
			}
			if tc.ckptInsts > 0 && st.SliceResumes == 0 {
				t.Fatalf("checkpointed run resumed no refill from a checkpoint (stats %+v); the regime under test did not engage", st)
			}
			if tc.ckptInsts == 0 && st.SliceResumes != 0 {
				t.Fatalf("checkpoint-free run somehow resumed %d refills", st.SliceResumes)
			}
			if st.BytesInUse > st.CapBytes {
				t.Errorf("resident bytes %d exceed cap %d", st.BytesInUse, st.CapBytes)
			}
		})
	}
}

// A second 1-worker run must also match: the drivers may not depend on
// map iteration order or any other per-process randomness.
func TestSequentialArtifactsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiment")
	}
	// fig4 folds per-branch accuracies into float bins and historically
	// iterated a map while doing it; it is the regression canary here.
	for _, id := range []string{"fig4", "table2"} {
		t.Run(id, func(t *testing.T) {
			r, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %q not found", id)
			}
			cfg := quickCfg()
			cfg.Workers = 1
			if a, b := mustRun(t, r.Run, cfg).String(), mustRun(t, r.Run, cfg).String(); a != b {
				t.Errorf("two sequential runs differ:\n%s\n---\n%s", a, b)
			}
		})
	}
}
