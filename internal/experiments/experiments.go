// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver regenerates its artifact from scratch
// — workload synthesis, prediction, screening, timing — and returns a
// report.Artifact whose shape is compared against the published result in
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sort"
	"time"

	"branchlab/internal/core"
	"branchlab/internal/engine"
	"branchlab/internal/pipeline"
	"branchlab/internal/report"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
	"branchlab/internal/workload"
)

// Config scales every experiment. The paper's traces are 10B
// instructions with 30M-instruction slices; these budgets shrink both
// while core.Criteria.Scaled keeps the screening thresholds equivalent.
type Config struct {
	Budget     uint64 // instructions per workload run
	SliceLen   uint64 // slice length for screening/phases
	PipeScales []int  // pipeline capacity scaling factors
	StorageKB  []int  // TAGE-SC-L budgets for the limit study
	MaxInputs  int    // cap on application inputs per workload
	Workers    int    // engine workers per experiment (0 = NumCPU)

	// RecordShards is ignored: every trace records sequentially.
	//
	// Deprecated: recording has one sequential path; nothing reads
	// this field.
	RecordShards int

	// Cache, when non-nil, is the shared trace cache: every driver
	// records (workload, input) traces through it, so one `-run all`
	// invocation synthesizes each trace once instead of once per driver.
	// The cache is slice-granular, and with a trace store (Store, or
	// the private spill store a capped cache opens) it serves every
	// stored slice from that store instead of the heap — so nil vs
	// non-nil, any cap and any slice size are all byte-identical.
	Cache *tracecache.Cache

	// CacheSlice is the trace cache's slice granularity in instructions
	// (0 = whole-trace entries, the pre-slice behaviour). Build Cache
	// through NewCache so the configured geometry is the one the cache
	// actually records and serves at.
	CacheSlice uint64

	// Store, when non-nil, is the persistent on-disk tier beneath the
	// trace cache (DESIGN.md §11): recordings stream into it, the cache
	// serves stored slices from it zero-copy, and a trace already stored
	// restores without recording at all — across process restarts.
	// NewCache attaches it in place of the cache's private spill store;
	// like the cache itself, attached vs not is byte-identical in every
	// artifact.
	Store *tracestore.Store

	// CkptSlice is ignored: the cache has no checkpoint refills.
	//
	// Deprecated: a slice is served from the heap or the trace store
	// only; nothing reads this field.
	CkptSlice uint64

	// Deadline bounds one driver run end to end (0 = none). It is
	// applied by Runner.RunCtx: the run's work units and recordings
	// share a context that expires after this duration, and an expired
	// run fails with a typed cancellation error (engine.CancelError,
	// which lists the work units that did complete) instead of partial
	// or wrong artifacts. A deadline generous enough for the run to finish
	// changes no artifact byte (DESIGN.md §9).
	Deadline time.Duration
}

// NewCache constructs the shared trace cache for this configuration at
// CacheSlice granularity, persisted through Store when one is
// configured; otherwise maxBytes > 0 makes it spill to a private store
// and maxBytes <= 0 keeps every slice on the heap. Callers assign the result to Cache and
// Close it once every run using it is done.
func (c Config) NewCache(maxBytes int64) *tracecache.Cache {
	cache := tracecache.NewSliced(maxBytes, c.CacheSlice)
	cache.SetStore(c.Store)
	return cache
}

// Pool returns the engine pool the experiment's work units run on.
func (c Config) Pool() *engine.Pool { return engine.New(c.Workers) }

// RecordTrace materializes one workload input's trace at the configured
// budget through Cache.RecordCtx — the one recording path. All drivers
// record through this so concurrent work units requesting the same trace
// coalesce onto a single recording. The returned trace replays
// identically whether it is a plain buffer (nil cache: the slices
// recorded and joined) or a cache view serving slices from the heap or
// its trace store.
// ctx bounds the recording: a cancelled or expired run returns a typed
// error — a truncated trace is never returned.
func (c Config) RecordTrace(ctx context.Context, s *workload.Spec, input int) (trace.Replayable, error) {
	return c.Cache.RecordCtx(ctx, s.Name, input, c.Budget,
		s.Source(input, c.Budget))
}

// Default returns the configuration used for EXPERIMENTS.md.
func Default() Config {
	return Config{
		Budget:     3_000_000,
		SliceLen:   750_000,
		PipeScales: []int{1, 2, 4, 8, 16, 32},
		StorageKB:  []int{8, 64, 128, 256, 512, 1024},
		MaxInputs:  3,
		CacheSlice: tracecache.DefaultSliceInsts,
	}
}

// Quick returns a reduced configuration for tests and smoke runs.
func Quick() Config {
	return Config{
		Budget:     400_000,
		SliceLen:   200_000,
		PipeScales: []int{1, 4, 16},
		StorageKB:  []int{8, 64, 1024},
		MaxInputs:  2,
		CacheSlice: tracecache.DefaultSliceInsts,
	}
}

// Runner is a named experiment driver. Run returns the artifact, or
// a typed error and no artifact: a failed work unit, a cancelled or
// expired ctx, a failed recording.
type Runner struct {
	ID    string
	Title string
	Run   func(context.Context, Config) (*report.Artifact, error)
}

// RunCtx runs the driver bounded by ctx and, when set, cfg.Deadline. A
// failure comes back as an error naming the driver that wraps the
// driver's typed error (engine.CancelError for a cancelled or expired
// run, which lists the work units that did complete), and an arbitrary
// driver panic is isolated into such an error instead of killing the
// process. A nil error means the artifact is complete and
// byte-identical to an unbounded run.
func (r Runner) RunCtx(ctx context.Context, cfg Config) (art *report.Artifact, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Deadline)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			art, err = nil, fmt.Errorf("experiments %s: driver panicked: %v\n%s", r.ID, rec, debug.Stack())
		}
	}()
	if err = ctx.Err(); err == nil {
		art, err = r.Run(ctx, cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments %s: %w", r.ID, err)
	}
	return art, nil
}

// All returns every experiment in paper order.
func All() []Runner {
	return []Runner{
		{"fig1", "IPC vs pipeline scaling, SPECint-like suite", Fig1},
		{"table1", "SPECint-like summary statistics", Table1},
		{"fig2", "Cumulative mispredictions of H2P heavy hitters", Fig2},
		{"table2", "LCF summary branch statistics", Table2},
		{"fig3", "LCF distributions: mispredictions, executions, accuracy", Fig3},
		{"fig4", "Accuracy vs dynamic executions; per-bin stddev", Fig4},
		{"fig5", "IPC vs pipeline scaling, LCF suite", Fig5},
		{"table3", "Dependency branches of top H2P heavy hitters", Table3},
		{"fig6", "History-position distributions of dependency branches", Fig6},
		{"fig7", "TAGE storage scaling 8KB-1024KB x pipeline scale", Fig7},
		{"fig8", "IPC opportunity remaining after perfecting frequent branches", Fig8},
		{"fig9", "Median recurrence interval distribution", Fig9},
		{"fig10", "Register values preceding top H2P executions", Fig10},
		{"alloc", "TAGE allocation churn: H2P vs non-H2P (§IV-A)", Alloc},
		{"cnn", "CNN helper predictors on H2P branches (§V-C)", CNN},
		{"phasecond", "Extension: phase-conditioned rare-branch statistics (§V-B)", PhaseCond},
	}
}

// ByID returns the runner with the given ID.
func ByID(id string) (Runner, bool) {
	for _, r := range All() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// --- shared helpers ----------------------------------------------------

// perTrace runs fn over each spec's input-0 trace, recorded through
// the configured trace cache, one engine work unit per spec, and
// returns the results in spec order.
func perTrace[T any](ctx context.Context, cfg Config, specs []*workload.Spec, fn func(s *workload.Spec, tr trace.Replayable) T) ([]T, error) {
	return engine.MapSliceErr(ctx, cfg.Pool(), specs, func(ctx context.Context, s *workload.Spec, _ int) (T, error) {
		tr, err := cfg.RecordTrace(ctx, s, 0)
		if err != nil {
			var zero T
			return zero, err
		}
		return fn(s, tr), nil
	})
}

// branchTotal pairs a static branch IP with its whole-run counters.
type branchTotal struct {
	IP uint64
	core.BranchStats
}

// sortedTotals returns a collector's per-branch totals in ascending IP
// order. Iterating the Totals map directly is randomized by the runtime,
// which makes any float accumulation over it nondeterministic between
// runs; every driver that folds totals into float sums or shared
// histograms goes through this instead.
func sortedTotals(col *core.Collector) []branchTotal {
	m := col.Totals()
	out := make([]branchTotal, 0, len(m))
	for ip, b := range m {
		out = append(out, branchTotal{ip, *b})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP < out[j].IP })
	return out
}

// screened pairs one screening pass's outputs for memoization.
type screened struct {
	rep *core.H2PReport
	col *core.Collector
}

// screenBranches screens one workload input under the baseline
// predictor, TAGE-SC-L 8KB, memoized in the shared cache: ten drivers
// screen the same input-0 traces under identical criteria, so one
// screening per (workload, input) serves them all. The screening runs
// no predictor of its own: it replays the trace against the 8KB
// outcome stream (tageOutcomes), the pass table the IPC drivers'
// tage-8kb cells schedule over, so one predictor pass per trace serves
// both. tr must be the (s, input) trace at the configured budget —
// callers pass the buffer they already hold so the uncached path
// records exactly as often as before. The returned report and
// collector are shared across drivers and must be treated as read-only
// (all their methods are).
func screenBranches(cfg Config, s *workload.Spec, input int, tr trace.Replayable) (*core.H2PReport, *core.Collector) {
	key := fmt.Sprintf("h2p/%s/%d/%d/%d", s.Name, input, cfg.Budget, cfg.SliceLen)
	v := cfg.Cache.Memo(key, func() any {
		col := collectOutcomes(tr, tageOutcomes(cfg, s, input, tr, 8), cfg.SliceLen)
		return screened{core.PaperCriteria().Scaled(cfg.SliceLen).Screen(col), col}
	}).(screened)
	return v.rep, v.col
}

// collectOutcomes fills a collector from tr and a predictor's outcome
// stream over it, making the calls core.Run makes with that predictor:
// Inst for every instruction, then Branch for every conditional branch
// with the direction the predictor predicted.
func collectOutcomes(tr trace.Replayable, out *pipeline.Outcomes, sliceLen uint64) *core.Collector {
	col := core.NewCollector(sliceLen)
	i := 0
	bs := tr.BlockStream(0)
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for j := range blk {
			inst := &blk[j]
			col.Inst(uint64(i), inst)
			if inst.Kind == trace.KindCondBr {
				col.Branch(uint64(i), inst, inst.Taken != out.Mispredicted(i))
			}
			i++
		}
	}
	return col
}

// regime is a pipeline cell's prediction regime: TAGE-SC-L at kb KB,
// or perfect prediction when kb is 0, with an optional oracle over the
// predictor's stream (pipeline.Options.PerfectIPs, MinExecsPerfect).
// sig names it in the cell's memo key; it must determine the regime
// uniquely together with (workload, budget, scale).
type regime struct {
	sig        string
	kb         int
	perfectIPs map[uint64]bool
	minExecs   uint64
}

func tageRegime(kb int) regime { return regime{sig: fmt.Sprintf("tage-%dkb", kb), kb: kb} }

var perfectRegime = regime{sig: "perfect"}

// ipcCell times a trace on the pipeline at the given scale, memoized in
// the shared cache: fig5/fig7/fig8 re-time identical (workload, scale,
// regime) cells. tr must be the workload's input-0 trace at the
// configured budget. A computed cell schedules over the trace's pass
// tables — its cache/BTB annotation and its predictor's outcome stream,
// each computed once per trace and shared by every scale and oracle.
func ipcCell(cfg Config, s *workload.Spec, tr trace.Replayable, scale int, reg regime) pipeline.Result {
	key := fmt.Sprintf("ipc/%s/0/%d/%d/%s", s.Name, cfg.Budget, scale, reg.sig)
	return cfg.Cache.Memo(key, func() any {
		opt := pipeline.Options{PerfectBP: reg.kb == 0, PerfectIPs: reg.perfectIPs, MinExecsPerfect: reg.minExecs}
		var out *pipeline.Outcomes
		if reg.kb != 0 {
			out = tageOutcomes(cfg, s, 0, tr, reg.kb)
		}
		return pipeline.Schedule(tr.BlockStream(0), pipeline.Skylake().Scaled(scale), annotation(cfg, s, tr), out, opt)
	}).(pipeline.Result)
}

// annotation is the Skylake cache/BTB annotation of s's input-0 trace,
// a per-trace pass table: Config.Scaled leaves Caches and BTB alone, so
// one annotation serves every scale.
func annotation(cfg Config, s *workload.Spec, tr trace.Replayable) *pipeline.Annotation {
	key := fmt.Sprintf("ann/%s/0/%d", s.Name, cfg.Budget)
	return cfg.Cache.Pass(key, func() any {
		return pipeline.Annotate(tr.BlockStream(0), pipeline.Skylake())
	}).(*pipeline.Annotation)
}

// tageOutcomes is TAGE-SC-L kb's outcome stream over tr, s's trace of
// the given input, a per-trace pass table shared by every scale and
// oracle regime over that predictor and, at 8KB, by the input's H2P
// screening.
func tageOutcomes(cfg Config, s *workload.Spec, input int, tr trace.Replayable, kb int) *pipeline.Outcomes {
	return tagePass(cfg, s, input, tr, kb).out
}

// allocTelemetry is TAGE-SC-L 8KB's tagged-entry allocation telemetry
// over tr, s's input-0 trace. The pass that computes the 8KB outcome
// stream collects it, so the alloc driver reads the stream the
// screening and the tage-8kb cells share and runs no predictor of its
// own. s must be a SPECint workload.
func allocTelemetry(cfg Config, s *workload.Spec, tr trace.Replayable) *allocSummary {
	return tagePass(cfg, s, 0, tr, 8).allocs
}

// tageStream is one TAGE-SC-L prediction pass: its outcome stream and,
// on the streams alloc reads (SPECint input 0 at 8KB), the allocation
// telemetry collected along the way (nil elsewhere).
type tageStream struct {
	out    *pipeline.Outcomes
	allocs *allocSummary
}

// tagePass is the pass table behind tageOutcomes and allocTelemetry.
// Tracking allocations changes no prediction, so the outcome stream is
// the same with or without it.
func tagePass(cfg Config, s *workload.Spec, input int, tr trace.Replayable, kb int) tageStream {
	key := fmt.Sprintf("pred/%s/%d/%d/tage-%dkb", s.Name, input, cfg.Budget, kb)
	return cfg.Cache.Pass(key, func() any {
		pred := tage.New(tage.NewConfig(kb))
		if kb != 8 || input != 0 || s.Suite != "specint2017" {
			return tageStream{out: pipeline.Predict(tr.BlockStream(0), pred)}
		}
		allocs := pred.EnableAllocTracking()
		out := pipeline.Predict(tr.BlockStream(0), pred)
		return tageStream{out, summarizeAllocs(allocs)}
	}).(tageStream)
}

// allocSummary is the part of a pass's tage.AllocStats the alloc driver
// reads, kept for the cache's lifetime in place of the collector: per
// IP, the allocation count and the number of distinct slots allocated
// (not the slot sets themselves), plus the total.
type allocSummary struct {
	perIP map[uint64]allocCount
	total uint64
}

// allocCount is one IP's entry in an allocSummary.
type allocCount struct {
	allocs uint64
	unique int
}

// summarizeAllocs reduces a finished pass's collector to its summary.
func summarizeAllocs(a *tage.AllocStats) *allocSummary {
	sum := &allocSummary{perIP: make(map[uint64]allocCount, len(a.AllocsPerIP)), total: a.TotalAllocs}
	for ip, n := range a.AllocsPerIP {
		sum.perIP[ip] = allocCount{allocs: n, unique: a.UniqueEntries(ip)}
	}
	return sum
}

// Allocs is tage.AllocStats.Allocs over the summary.
func (a *allocSummary) Allocs(ip uint64) uint64 { return a.perIP[ip].allocs }

// UniqueEntries is tage.AllocStats.UniqueEntries over the summary.
func (a *allocSummary) UniqueEntries(ip uint64) int { return a.perIP[ip].unique }

// ShareOfAllocs is tage.AllocStats.ShareOfAllocs over the summary.
func (a *allocSummary) ShareOfAllocs(ip uint64) float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.perIP[ip].allocs) / float64(a.total)
}

// geomean of a slice (positives assumed).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string  { return fmt.Sprintf("%.4f", v) }
func d(v int) string       { return fmt.Sprintf("%d", v) }
func u(v uint64) string    { return fmt.Sprintf("%d", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// sortedIPs returns map keys in ascending order.
func sortedIPs(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for ip := range m {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
