// Command experiments regenerates the paper's tables and figures from
// scratch. Each experiment synthesizes its workloads, runs the
// predictors/pipeline, and prints the artifact that corresponds to one
// published table or figure (see DESIGN.md for the index).
//
// Examples:
//
//	experiments -list
//	experiments -run fig1
//	experiments -run all -budget 3000000
//	experiments -run table1 -quick
//	experiments -run all -quick -parallel 8
//
// Each experiment's independent simulation cells run on the engine
// worker pool; -parallel selects the worker count (0 = NumCPU, 1 =
// sequential). Output is byte-identical at every worker count.
//
// Workload traces are recorded once per (workload, input, budget)
// through a shared in-memory cache and replayed by every experiment
// that needs them; -tracecache bounds the cache in MiB (0 disables it)
// and -cacheslice sets its eviction granularity in instructions: the
// cache evicts cold fixed-size slices of a trace rather than whole
// recordings, and an evicted slice refills deterministically the next
// time a replay reaches it, so a capped cache stays byte-identical to
// an unbounded one. -ckptslice sets the payload checkpoint spacing
// captured during first recording (0 = none): with checkpoints in the
// cache header an evicted slice refills in O(window) by resuming from
// the nearest checkpoint instead of regenerating the whole prefix.
// Cache counters print to stderr behind -cachestats, keeping stdout
// diff-able. -recshards N records each trace on N workers, one or more
// slices each (sharded deterministic recording; with -tracecache 0 the
// slices are the default cache slice size); output stays
// byte-identical in every combination of flags.
//
// -tracestore DIR adds a persistent content-addressed tier beneath the
// RAM cache (DESIGN.md §11): recordings write through to DIR, evicted
// slices promote back from disk (mmap, zero-copy) instead of
// re-recording, and a later invocation against the same DIR restores
// whole traces — recorded extent and instruction bytes — without
// recording at all. Checkpoints are not stored, so a slice refilled in
// a restored trace skims from instruction zero. Every stored file is
// checksummed; a corrupt or mismatched file is rejected and
// re-recorded, so a warm store can cost extra recording but never
// wrong bytes. -tracestorecap bounds the store in MiB (0 = unbounded)
// with whole-trace LRU eviction. Store counters print alongside the
// cache's behind -cachestats.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"branchlab/internal/cliutil"
	"branchlab/internal/engine"
	"branchlab/internal/experiments"
	"branchlab/internal/faultinject"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
)

func main() {
	var (
		run      = flag.String("run", "all", "experiment id or 'all'")
		list     = flag.Bool("list", false, "list experiments")
		quick    = flag.Bool("quick", false, "use the reduced quick configuration")
		budget   = flag.Uint64("budget", 0, "override instruction budget per workload")
		slice    = flag.Uint64("slice", 0, "override slice length")
		parallel = flag.Int("parallel", 0, "engine workers per experiment (0 = NumCPU)")
		cacheMB  = flag.Int64("tracecache", 4096, "shared trace cache size in MiB (-1 = unbounded, 0 = off)")
		cacheSl  = flag.Uint64("cacheslice", tracecache.DefaultSliceInsts, "trace cache slice granularity in instructions (0 = whole-trace eviction)")
		ckptSl   = flag.Uint64("ckptslice", tracecache.DefaultSliceInsts, "payload checkpoint spacing in instructions for O(window) evicted-slice refills (0 = no checkpoints)")
		shards   = flag.Int("recshards", 0, "record each trace on this many workers (<= 1 = sequential; output is byte-identical)")
		storeDir = flag.String("tracestore", "", "persistent trace store directory (\"\" = off); warm runs replay stored traces without recording")
		storeCap = flag.Int64("tracestorecap", 0, "trace store disk budget in MiB (0 = unbounded); coldest whole traces evict first")
		deadline = flag.Duration("deadline", 0, "per-experiment wall-clock bound (0 = none); an expired run fails typed, never prints partial artifacts")
		stats    = tracecache.StatsFlag(nil)
	)
	flag.Parse()

	// Fault-injection sweeps arm a seeded plan via BRANCHLAB_FAULTSEED;
	// builds without the faultinject tag refuse the variable so a sweep
	// can never silently run unfaulted.
	if err := faultinject.ActivateFromEnv(os.LookupEnv); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.ID, r.Title)
		}
		return
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}
	if *slice > 0 {
		cfg.SliceLen = *slice
	}
	cfg.Workers = *parallel
	cfg.RecordShards = *shards
	cfg.CacheSlice = *cacheSl
	cfg.CkptSlice = *ckptSl
	// An explicit zero override is a user error, not "use the default".
	effBudget, effSlice := cfg.Budget, cfg.SliceLen
	if cliutil.Provided(nil, "budget") {
		effBudget = *budget
	}
	if cliutil.Provided(nil, "slice") {
		effSlice = *slice
	}
	if err := (cliutil.RunFlags{
		Budget:        effBudget,
		SliceLen:      effSlice,
		Parallel:      *parallel,
		RecShards:     *shards,
		CacheEnabled:  *cacheMB != 0,
		CacheSliceSet: cliutil.Provided(nil, "cacheslice"),
		CkptSliceSet:  cliutil.Provided(nil, "ckptslice"),
		StoreSet:      *storeDir != "",
		StoreCap:      *storeCap,
		StoreCapSet:   cliutil.Provided(nil, "tracestorecap"),
		Deadline:      *deadline,
		DeadlineSet:   cliutil.Provided(nil, "deadline"),
	}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	cfg.Deadline = *deadline
	if *storeDir != "" {
		store, err := tracestore.Open(*storeDir, *storeCap<<20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer store.Close()
		cfg.Store = store
	}
	if *cacheMB != 0 {
		limit := *cacheMB << 20
		if limit < 0 {
			limit = 0 // unbounded
		}
		cfg.Cache = cfg.NewCache(limit)
	}

	runners := experiments.All()
	if *run != "all" {
		r, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", *run)
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}
	// Artifacts go to stdout; timing goes to stderr so stdout is
	// byte-identical across runs and worker counts (diff-able). A run
	// that fails — deadline, injected fault, poisoned cell — stops at
	// the first failed experiment with a typed error on stderr: stdout
	// stays a byte-prefix of a successful run's output, never a partial
	// or wrong artifact (DESIGN.md §9).
	completed := 0
	for _, r := range runners {
		//lint:ignore determinism progress timing goes to stderr only; the artifact on stdout never sees it
		start := time.Now()
		artifact, err := r.RunCtx(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			var ce *engine.CancelError
			if errors.As(err, &ce) {
				fmt.Fprintf(os.Stderr, "experiments: %s cancelled with %d/%d work units complete\n",
					r.ID, len(ce.Completed), ce.Total)
			}
			fmt.Fprintf(os.Stderr, "experiments: completed %d/%d experiments\n", completed, len(runners))
			if *stats {
				tracecache.WriteStats(os.Stderr, cfg.Cache)
				tracestore.WriteStats(os.Stderr, cfg.Store)
			}
			os.Exit(1)
		}
		fmt.Print(artifact.String())
		fmt.Println()
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", r.ID, time.Since(start).Round(time.Millisecond))
		completed++
	}
	if *stats {
		tracecache.WriteStats(os.Stderr, cfg.Cache)
		tracestore.WriteStats(os.Stderr, cfg.Store)
	}
}
