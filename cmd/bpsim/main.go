// Command bpsim runs a branch predictor over a synthetic workload (or a
// recorded trace file) and reports accuracy, MPKI, H2P screening results
// and — optionally — pipeline IPC.
//
// Examples:
//
//	bpsim -workload 605.mcf_s -predictor tage-sc-l-8 -budget 2000000
//	bpsim -workload game -predictor tage-sc-l-64 -pipeline 4
//	bpsim -workload game -pipeline 1,4,16 -parallel 3
//	bpsim -workload game -pipeline 1,4,16 -tracecache 64 -cacheslice 65536
//	bpsim -workload game -pipeline 1,4,16 -tracestore ./store -tracestorecap 512
//	bpsim -trace trace.blt -predictor gshare
//	bpsim -list
//
// -pipeline accepts a comma-separated list of scales; the timed runs
// execute on the engine worker pool (-parallel workers, 0 = NumCPU) and
// print in scale order regardless of completion order.
//
// Multi-scale sweeps record the workload once through a trace cache.
// Any positive -tracecache makes the cache stream the recording into a
// trace store while it records — the -tracestore directory, or else a
// private store under $TMPDIR that bpsim removes at exit — and serve
// every stored slice from that store, byte-identically; the number does
// not bound heap bytes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"branchlab/internal/cliutil"
	"branchlab/internal/core"
	"branchlab/internal/engine"
	"branchlab/internal/faultinject"
	"branchlab/internal/pipeline"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
	"branchlab/internal/workload"
	"branchlab/internal/zoo"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name (see -list)")
		input        = flag.Int("input", 0, "application input index")
		traceFile    = flag.String("trace", "", "run a recorded .blt trace instead of a workload")
		predName     = flag.String("predictor", "tage-sc-l-8", "predictor name")
		budget       = flag.Uint64("budget", 2_000_000, "instruction budget")
		sliceLen     = flag.Uint64("slice", 500_000, "slice length for H2P screening")
		pipeScales   = flag.String("pipeline", "", fmt.Sprintf("pipeline scale(s) in 1..%d, comma-separated (empty = accuracy only)", pipeline.MaxScale))
		parallel     = flag.Int("parallel", 0, "engine workers for the pipeline sweep (0 = NumCPU)")
		cacheMB      = flag.Int64("tracecache", 0, "trace cache mode (0 = every slice on the heap); any positive value spills recordings to a trace store (-tracestore, or a private one under $TMPDIR removed at exit) and serves slices from it, so the number does not bound heap bytes; setting it forces caching even for single-scale runs")
		cacheSlice   = flag.Uint64("cacheslice", tracecache.DefaultSliceInsts, "trace cache slice granularity in instructions (0 = one slice per trace)")
		storeFlag    = flag.String("tracestore", "", "persistent trace store directory (\"\" = off); warm runs replay stored traces without recording; setting it forces caching")
		storeCapFlag = flag.Int64("tracestorecap", 0, "trace store disk budget in MiB (0 = unbounded); coldest whole traces evict first")
		deadline     = flag.Duration("deadline", 0, "whole-invocation wall-clock bound (0 = none); an expired run fails typed, never prints truncated results")
		cacheStats   = tracecache.StatsFlag(nil)
		list         = flag.Bool("list", false, "list workloads and predictors")
		top          = flag.Int("top", 0, "print the top-N mispredicting branches")
	)
	flag.Parse()

	// Fault-injection sweeps arm a seeded plan via BRANCHLAB_FAULTSEED;
	// builds without the faultinject tag refuse the variable so a sweep
	// can never silently run unfaulted.
	if err := faultinject.ActivateFromEnv(os.LookupEnv); err != nil {
		fmt.Fprintln(os.Stderr, "bpsim:", err)
		os.Exit(1)
	}
	topN = *top
	cacheCap = *cacheMB << 20
	cacheSliceInsts = *cacheSlice
	storeDir = *storeFlag
	storeCapBytes = *storeCapFlag << 20
	printCacheStats = *cacheStats

	if *list {
		fmt.Println("workloads (specint2017):")
		for _, s := range workload.SPECint2017Like() {
			fmt.Printf("  %-20s inputs=%d\n", s.Name, s.NumInputs)
		}
		fmt.Println("workloads (lcf):")
		for _, s := range workload.LCFLike() {
			fmt.Printf("  %-20s inputs=%d\n", s.Name, s.NumInputs)
		}
		fmt.Println("predictors:")
		for _, n := range zoo.Names() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	scales, err := parseScales(*pipeScales)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpsim:", err)
		os.Exit(1)
	}
	// The workload cache exists for multi-scale sweeps and whenever
	// -tracecache or -tracestore is explicitly provided (see run);
	// geometry flags outside those combinations would be silently
	// ignored, so they are rejected instead.
	cacheForced = cliutil.Provided(nil, "tracecache") || storeDir != ""
	cacheWillExist := *traceFile == "" && (len(scales) > 1 || cacheForced)
	if *traceFile != "" && storeDir != "" {
		fmt.Fprintln(os.Stderr, "bpsim: -tracestore persists workload recordings and has no effect with -trace (files re-open and stream)")
		os.Exit(1)
	}
	if err := (cliutil.RunFlags{
		Budget:        *budget,
		SliceLen:      *sliceLen,
		Parallel:      *parallel,
		CacheEnabled:  cacheWillExist,
		CacheSliceSet: cliutil.Provided(nil, "cacheslice"),
		StoreSet:      storeDir != "",
		StoreCap:      *storeCapFlag,
		StoreCapSet:   cliutil.Provided(nil, "tracestorecap"),
		Deadline:      *deadline,
		DeadlineSet:   cliutil.Provided(nil, "deadline"),
	}).Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "bpsim:", err)
		os.Exit(1)
	}
	if *traceFile != "" {
		// Flags that parameterize workload synthesis are meaningless —
		// and were silently ignored — against a recorded trace file.
		if *workloadName != "" {
			fmt.Fprintln(os.Stderr, "bpsim: -trace and -workload are mutually exclusive; choose one input")
			os.Exit(1)
		}
		if cacheForced {
			fmt.Fprintln(os.Stderr, "bpsim: -tracecache caches workload recordings and has no effect with -trace (files re-open and stream)")
			os.Exit(1)
		}
	}
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}
	if err := run(ctx, *workloadName, *input, *traceFile, *predName, *budget, *sliceLen, scales, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "bpsim:", err)
		os.Exit(1)
	}
}

// errScaleTooLarge rejects a -pipeline scale above pipeline.MaxScale.
var errScaleTooLarge = fmt.Errorf("above the timing model's maximum of %dx", pipeline.MaxScale)

// parseScales parses the -pipeline flag: "" or "0" disables the timing
// model; "4" or "1,4,16" selects the scales to sweep, each in
// 1..pipeline.MaxScale.
func parseScales(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "0" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad -pipeline scale %q", part)
		}
		if v > pipeline.MaxScale {
			return nil, fmt.Errorf("-pipeline scale %d: %w", v, errScaleTooLarge)
		}
		out = append(out, v)
	}
	return out, nil
}

var (
	topN            int
	cacheCap        int64
	cacheSliceInsts uint64
	cacheForced     bool   // -tracecache or -tracestore explicitly provided
	storeDir        string // -tracestore directory ("" = off)
	storeCapBytes   int64  // -tracestorecap in bytes (0 = unbounded)
	printCacheStats bool
)

func run(ctx context.Context, workloadName string, input int, traceFile, predName string, budget, sliceLen uint64, pipeScales []int, parallel int) error {
	pred, err := zoo.New(predName)
	if err != nil {
		return err
	}

	// Multi-scale workload sweeps record the trace once through the
	// cache and replay it for the accuracy pass and every pipeline
	// scale, and an explicit -tracecache opts in directly (the flag
	// must never be silently ignored). The cache is slice-granular:
	// with a store (-tracestore, or the private one a positive
	// -tracecache opens) every stored slice is served from it, so the
	// sweep's memory follows the slices its replays are reading.
	// Accuracy-only and
	// single-scale runs otherwise stream at O(1) memory (the budget can
	// be arbitrarily large), as do trace files.
	var cache *tracecache.Cache
	if traceFile == "" && (len(pipeScales) > 1 || cacheForced) {
		cache = tracecache.NewSliced(cacheCap, cacheSliceInsts)
		defer func() {
			if err := cache.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "bpsim:", err)
			}
		}()
		// -tracestore makes the tier beneath the cache persistent
		// (DESIGN.md §11): recordings stream into the directory, the
		// cache serves stored slices from disk, and a warm directory
		// restores whole traces across invocations without recording.
		if storeDir != "" {
			store, err := tracestore.Open(storeDir, storeCapBytes)
			if err != nil {
				return err
			}
			defer store.Close()
			cache.SetStore(store)
			if printCacheStats {
				defer tracestore.WriteStats(os.Stderr, store)
			}
		}
	}
	open := func() (trace.BlockStream, func(), error) {
		if traceFile != "" {
			f, err := os.Open(traceFile)
			if err != nil {
				return nil, nil, err
			}
			return trace.NewReader(f), func() { f.Close() }, nil
		}
		spec, ok := workload.ByName(workloadName)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q (use -list)", workloadName)
		}
		if cache == nil {
			s := spec.Stream(ctx, input, budget)
			return s, func() { s.Close() }, nil
		}
		tr, err := cache.RecordCtx(ctx, spec.Name, input, budget,
			spec.Source(input, budget))
		if err != nil {
			return nil, nil, err
		}
		return tr.BlockStream(0), func() {}, nil
	}

	s, cleanup, err := open()
	if err != nil {
		return err
	}
	defer cleanup()

	col := core.NewCollector(sliceLen)
	st := core.RunBlocks(s, pred, col)
	// A stream that ended early (cancellation, payload failure) delivered
	// a truncated prefix: fail before printing anything computed from it.
	if err := trace.StreamErr(s); err != nil {
		return err
	}

	fmt.Printf("predictor:        %s\n", pred.Name())
	fmt.Printf("instructions:     %d\n", st.Insts)
	fmt.Printf("cond branches:    %d\n", st.CondExecs)
	fmt.Printf("mispredictions:   %d\n", st.Mispreds)
	fmt.Printf("accuracy:         %.4f\n", st.Accuracy())
	fmt.Printf("MPKI:             %.2f\n", st.MPKI())
	fmt.Printf("static branches:  %d (median %d per %d-inst slice)\n",
		col.StaticBranches(), col.MedianStaticPerSlice(), sliceLen)

	crit := core.PaperCriteria().Scaled(sliceLen)
	rep := crit.Screen(col)
	set := rep.Set()
	fmt.Printf("H2P branches:     %d total, %.1f avg/slice, %.1f%% of mispredictions\n",
		len(set), rep.AvgPerSlice(), 100*rep.MispredShare())
	fmt.Printf("accuracy excl. H2Ps: %.4f\n", col.AccuracyExcluding(set))
	if hh := rep.HeavyHitters(); len(hh) > 0 {
		n := len(hh)
		if n > 5 {
			n = 5
		}
		fmt.Println("top heavy hitters:")
		for _, h := range hh[:n] {
			fmt.Printf("  ip=%#x execs=%d mispreds=%d cum=%.2f\n",
				h.IP, h.Execs, h.Mispreds, h.CumMispredFrac)
		}
	}

	if topN > 0 {
		type row struct {
			ip       uint64
			execs    uint64
			mispreds uint64
		}
		var rows []row
		for ip, b := range col.Totals() {
			rows = append(rows, row{ip, b.Execs, b.Mispreds})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].mispreds > rows[j].mispreds })
		if len(rows) > topN {
			rows = rows[:topN]
		}
		fmt.Println("top mispredicting branches:")
		for _, r := range rows {
			fmt.Printf("  ip=%#x id=%-6d execs=%-8d mispreds=%-8d acc=%.3f\n",
				r.ip, (r.ip-0x400000)/64, r.execs, r.mispreds,
				1-float64(r.mispreds)/float64(r.execs))
		}
	}

	if len(pipeScales) > 0 {
		// Each scale is an independent work unit with its own stream and
		// predictor, printed in scale order. Workload streams replay the
		// cached recording (synthesized once, bounded by -budget); -trace
		// files re-open and stream at O(1) memory, since they can be
		// arbitrarily large.
		results, err := engine.MapSliceErr(ctx, engine.New(parallel), pipeScales,
			func(_ context.Context, scale int, _ int) (pipeline.Result, error) {
				s2, cleanup2, err := open()
				if err != nil {
					return pipeline.Result{}, err
				}
				defer cleanup2()
				pred2, err := zoo.New(predName)
				if err != nil {
					return pipeline.Result{}, err
				}
				res := pipeline.New(pipeline.Skylake().Scaled(scale)).
					RunBlocks(s2, pipeline.Options{Predictor: pred2})
				// A truncated stream times a prefix, not the run: fail the
				// cell rather than report a wrong IPC.
				if serr := trace.StreamErr(s2); serr != nil {
					return pipeline.Result{}, serr
				}
				return res, nil
			})
		if err != nil {
			return err
		}
		for i, scale := range pipeScales {
			res := results[i]
			fmt.Printf("pipeline %dx:      IPC %.3f (%.2f MPKI, %.2f L1D miss PKI)\n",
				scale, res.IPC, res.MPKI, res.L1DMissPKI)
		}
	}
	if printCacheStats {
		tracecache.WriteStats(os.Stderr, cache)
	}
	return nil
}
