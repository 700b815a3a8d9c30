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
// that needs them. -tracecache selects the cache's mode (-1, the
// default, keeps every slice on the heap; 0 disables the cache) and
// -cacheslice sets its slice granularity in instructions. Any positive
// -tracecache makes the cache stream every recording into a trace
// store while it records — the -tracestore directory, or else a
// private store it opens under $TMPDIR and removes at exit (disk
// equals the traces' footprint) — and serve every stored slice from
// that store, so the number does not bound heap bytes and the output
// stays byte-identical to an unbounded cache's. Cache counters print
// to stderr behind -cachestats, keeping stdout diff-able.
//
// -tracestore DIR makes the store persistent (DESIGN.md §11):
// recordings stream into DIR, the cache serves stored slices from disk
// (mmap, zero-copy), and a later invocation against the same DIR
// restores whole traces — recorded extent and instruction bytes —
// without recording at all. Every stored file is checksummed; a
// corrupt or mismatched file is rejected and the trace re-recorded, so
// a warm store can cost extra recording but never wrong bytes.
// -tracestorecap bounds the store in MiB (0 = unbounded) with
// whole-trace LRU eviction. Store counters print alongside the cache's
// behind -cachestats.
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
		cacheMB  = flag.Int64("tracecache", -1, "shared trace cache mode (-1 = every slice on the heap, 0 = off); any positive value spills recordings to a trace store (-tracestore, or a private one under $TMPDIR removed at exit) and serves slices from it, so the number does not bound heap bytes")
		cacheSl  = flag.Uint64("cacheslice", tracecache.DefaultSliceInsts, "trace cache slice granularity in instructions (0 = one slice per trace)")
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
	cfg.CacheSlice = *cacheSl
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
		CacheEnabled:  *cacheMB != 0,
		CacheSliceSet: cliutil.Provided(nil, "cacheslice"),
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

	runners := experiments.All()
	if *run != "all" {
		r, ok := experiments.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown id %q (use -list)\n", *run)
			os.Exit(1)
		}
		runners = []experiments.Runner{r}
	}
	if *storeDir != "" {
		store, err := tracestore.Open(*storeDir, *storeCap<<20)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		cfg.Store = store
	}
	if *cacheMB != 0 {
		limit := *cacheMB << 20
		if limit < 0 {
			limit = 0 // unbounded
		}
		cfg.Cache = cfg.NewCache(limit)
	}
	code := runAll(cfg, runners, *stats)
	// The cache's spill store goes before exit, which skips defers.
	if err := cfg.Cache.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	cfg.Store.Close()
	os.Exit(code)
}

// runAll runs runners in order, printing each artifact to stdout, and
// returns the process exit code.
func runAll(cfg experiments.Config, runners []experiments.Runner, stats bool) int {
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
			if stats {
				tracecache.WriteStats(os.Stderr, cfg.Cache)
				tracestore.WriteStats(os.Stderr, cfg.Store)
			}
			return 1
		}
		fmt.Print(artifact.String())
		fmt.Println()
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", r.ID, time.Since(start).Round(time.Millisecond))
		completed++
	}
	if stats {
		tracecache.WriteStats(os.Stderr, cfg.Cache)
		tracestore.WriteStats(os.Stderr, cfg.Store)
	}
	return 0
}
