// Package branchlab is a from-scratch Go reproduction of "Branch
// Prediction Is Not A Solved Problem: Measurements, Opportunities, and
// Future Directions" (Lin & Tarsa, IISWC 2019): a trace-driven CPU
// simulation stack — synthetic workload suites, a TAGE-SC-L predictor
// with baselines, a Skylake-like out-of-order pipeline timing model —
// plus the paper's measurement toolkit: H2P screening, heavy-hitter
// ranking, SimPoint-style phase analysis, operand dependency graphs,
// recurrence intervals, register-value tracking, TAGE allocation
// telemetry and offline-trained CNN helper predictors.
//
// This package is the stable facade over the internal packages. Typical
// use:
//
//	spec, _ := branchlab.Workload("605.mcf_s")
//	stream := spec.Stream(ctx, 0, 2_000_000)
//	defer stream.Close()
//
//	pred := branchlab.NewTAGESCL(8)
//	col := branchlab.NewCollector(500_000)
//	stats := branchlab.Run(stream, pred, col)
//	if err := stream.Err(); err != nil {
//		return err // cancelled or failed: the run saw a truncated prefix
//	}
//	report := branchlab.ScreenH2Ps(col, 500_000)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured comparison of every table and figure.
package branchlab

import (
	"context"
	"io"

	"branchlab/internal/bp"
	"branchlab/internal/cnn"
	"branchlab/internal/core"
	"branchlab/internal/engine"
	"branchlab/internal/experiments"
	"branchlab/internal/phase"
	"branchlab/internal/pipeline"
	"branchlab/internal/report"
	"branchlab/internal/simpoint"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
	"branchlab/internal/workload"
	"branchlab/internal/zoo"
)

// Core trace types.
type (
	// Inst is one dynamic instruction record.
	Inst = trace.Inst
	// BlockStream is a forward-only producer of instruction batches:
	// the one read path every replay takes.
	BlockStream = trace.BlockStream
	// Buffer is a materialized, replayable trace.
	Buffer = trace.Buffer
	// Replayable is a materialized trace servable any number of times:
	// a *Buffer, or a trace-cache view that serves its slices from the
	// heap or its trace store. Replays are always byte-identical.
	Replayable = trace.Replayable
	// Kind classifies instructions.
	Kind = trace.Kind
)

// Predictor interfaces and implementations.
type (
	// Predictor is the branch-direction predictor contract.
	Predictor = bp.Predictor
	// TAGE is a TAGE-SC-L predictor instance.
	TAGE = tage.Predictor
	// TAGEConfig parameterizes a TAGE-SC-L instance.
	TAGEConfig = tage.Config
)

// Measurement types.
type (
	// Collector accumulates per-slice per-branch statistics.
	Collector = core.Collector
	// Criteria are H2P screening thresholds.
	Criteria = core.Criteria
	// H2PReport is the result of screening a run.
	H2PReport = core.H2PReport
	// RunStats summarizes a measurement run.
	RunStats = core.RunStats
	// Observer receives per-instruction callbacks during Run.
	Observer = core.Observer
	// WorkloadSpec is one synthetic benchmark.
	WorkloadSpec = workload.Spec
	// PipelineConfig parameterizes the timing model.
	PipelineConfig = pipeline.Config
	// PipelineResult reports IPC and misprediction outcomes.
	PipelineResult = pipeline.Result
	// PipelineOptions selects the prediction regime of a timed run.
	PipelineOptions = pipeline.Options
	// HelperModel is an offline-trained CNN helper predictor.
	HelperModel = cnn.Model
	// HelperConfig sizes a CNN helper.
	HelperConfig = cnn.Config
)

// NewTAGESCL returns a TAGE-SC-L predictor with approximately kb
// kilobytes of state (the paper studies 8 through 1024).
func NewTAGESCL(kb int) *TAGE { return tage.New(tage.NewConfig(kb)) }

// NewPredictor constructs any predictor in the repository by name (e.g.
// "tage-sc-l-8", "gshare", "perceptron"); see the zoo package for the
// full list.
func NewPredictor(name string) (Predictor, error) { return zoo.New(name) }

// PredictorNames lists the available predictor names.
func PredictorNames() []string { return zoo.Names() }

// Workload returns the named synthetic workload from either suite.
func Workload(name string) (*WorkloadSpec, bool) { return workload.ByName(name) }

// SPECint2017Like returns the nine Table I workloads.
func SPECint2017Like() []*WorkloadSpec { return workload.SPECint2017Like() }

// LCFLike returns the six Table II large-code-footprint workloads.
func LCFLike() []*WorkloadSpec { return workload.LCFLike() }

// Run drives a block stream through a predictor, fanning events to
// observers. Buffer and cache replays serve their blocks zero-copy.
func Run(bs BlockStream, p Predictor, obs ...Observer) RunStats {
	return core.RunBlocks(bs, p, obs...)
}

// Observe replays a block stream through observers with no predictor —
// the fast path for analysis passes (dependency graphs, recurrence
// tracking, BBV collection, register values, helper-training history)
// whose observers ignore predictions. Observers see instruction
// indices from 0, one per instruction, and each serves one pass: to
// analyze a trace, observe it whole in a single sequential pass.
func Observe(bs BlockStream, obs ...Observer) RunStats { return core.ObserveBlocks(bs, obs...) }

// NewCollector returns a Collector with the given slice length.
func NewCollector(sliceLen uint64) *Collector { return core.NewCollector(sliceLen) }

// PaperCriteria returns the published H2P screening thresholds (per
// 30M-instruction slice).
func PaperCriteria() Criteria { return core.PaperCriteria() }

// ScreenH2Ps applies the paper's criteria, scaled to sliceLen, to a
// collector.
func ScreenH2Ps(col *Collector, sliceLen uint64) *H2PReport {
	return core.PaperCriteria().Scaled(sliceLen).Screen(col)
}

// RecordTrace materializes up to budget instructions from a workload
// input. It is the facade's context-free recording root: the recording
// cannot be cancelled, so only a payload failure can stop it, and that
// panics with the payload's error. Use RecordTraceCachedCtx to bound a
// recording by a caller context.
func RecordTrace(spec *WorkloadSpec, input int, budget uint64) *Buffer {
	//lint:ignore ctxflow RecordTrace is the facade's documented no-context root; RecordTraceCachedCtx is the bounded form
	buf, err := spec.RecordCtx(context.Background(), input, budget)
	if err != nil {
		panic(err)
	}
	return buf
}

// TraceCache is a content-keyed, concurrency-safe cache of recorded
// traces: concurrent requests for one (workload, input, budget)
// coalesce onto a single recording — each budget is its own entry,
// since a workload's static structure scales with its budget. A cache
// without a trace store keeps every fixed-size slice on the heap; a
// cache with one serves every stored slice from it (mmap, zero-copy),
// so resident memory follows the slices replays are reading rather
// than whole traces. A capped cache with no store attached spills to a
// private store under os.TempDir(); Close removes it. Share one cache
// across drivers (via ExperimentConfig.Cache or RecordTraceCachedCtx)
// to synthesize each trace once per process.
type TraceCache = tracecache.Cache

// TraceCacheStats are a cache's hit/miss counters, including the
// per-slice heap/store/re-record breakdown.
type TraceCacheStats = tracecache.Stats

// NewTraceCache returns a trace cache at the default slice granularity
// (tracecache.DefaultSliceInsts). maxBytes > 0 makes a cache with no
// store attached spill every recording to a private store and serve it
// from there, so maxBytes does not bound heap bytes; maxBytes <= 0
// keeps such a cache's slices on the heap. Close it once its replays
// are done: Close removes the private store.
func NewTraceCache(maxBytes int64) *TraceCache { return tracecache.New(maxBytes) }

// NewSlicedTraceCache is NewTraceCache with an explicit slice
// granularity in instructions (0 = one slice per trace).
func NewSlicedTraceCache(maxBytes int64, sliceInsts uint64) *TraceCache {
	return tracecache.NewSliced(maxBytes, sliceInsts)
}

// TraceStore is the persistent, content-addressed disk tier beneath a
// TraceCache (DESIGN.md §11): recordings write through to its
// directory, the cache serves stored slices from it zero-copy
// (mmap-served where the platform supports it), and a later process
// pointed at the same directory restores whole traces — the recorded
// extent and the slices' instruction bytes — without recording at all.
// Every file is checksummed and keyed by the recording's full content
// identity (workload, input, budget, slice geometry, format version,
// instruction layout); anything corrupt or mismatched is rejected and
// re-recorded, so a warm store can cost extra recording but never
// wrong bytes.
type TraceStore = tracestore.Store

// TraceStoreStats are a store's hit/write/reject counters and disk
// accounting.
type TraceStoreStats = tracestore.Stats

// OpenTraceStore opens (creating if needed) a trace store rooted at
// dir, holding at most maxBytes of trace data on disk (0 = unbounded;
// whole least-recently-used traces evict first). Attach it with
// TraceCache.SetStore or ExperimentConfig.Store, and Close it only
// after replays are done — pins served from the store become invalid
// at Close.
func OpenTraceStore(dir string, maxBytes int64) (*TraceStore, error) {
	return tracestore.Open(dir, maxBytes)
}

// RecordTraceCachedCtx is RecordTrace through a shared cache, under a
// caller context: it records on the first request for (spec, input,
// budget) and serves replayable views afterwards, each slice from the
// heap or the cache's trace store (byte-identically). A nil cache
// records without caching.
//
// A cancelled or deadline-expired recording returns a typed error (see
// IsCancel) and never a truncated or wrong trace. Concurrent callers
// coalesce; a cancelled waiter detaches without disturbing the shared
// recording, and a cancelled leader hands the recording off to a
// surviving waiter (DESIGN.md §9).
func RecordTraceCachedCtx(ctx context.Context, c *TraceCache, spec *WorkloadSpec, input int, budget uint64) (Replayable, error) {
	return c.RecordCtx(ctx, spec.Name, input, budget,
		spec.Source(input, budget))
}

// SkylakeConfig returns the baseline pipeline configuration; scale it
// with Scaled for the paper's 2x-32x studies.
func SkylakeConfig() PipelineConfig { return pipeline.Skylake() }

// SimulateIPC times a block stream on the pipeline model.
func SimulateIPC(bs BlockStream, cfg PipelineConfig, opt PipelineOptions) PipelineResult {
	return pipeline.New(cfg).RunBlocks(bs, opt)
}

// CountPhases runs SimPoint-style phase analysis over a block stream.
func CountPhases(bs BlockStream, sliceLen uint64, maxK int) int {
	return simpoint.Phases(bs, sliceLen, maxK).K
}

// NewRecurrenceTracker returns the Fig 9 recurrence-interval observer.
func NewRecurrenceTracker() *phase.RecurrenceTracker { return phase.NewRecurrenceTracker() }

// DefaultHelperConfig returns the CNN helper configuration used by the
// experiments.
func DefaultHelperConfig() HelperConfig { return cnn.DefaultConfig() }

// TrainHelper trains a CNN helper for the branch at target from the
// given traces (ideally multiple application inputs, per §V-B).
func TrainHelper(cfg HelperConfig, target uint64, traces ...*Buffer) *HelperModel {
	var samples []cnn.Sample
	for _, tr := range traces {
		hc := cnn.NewHistoryCollector(cfg, target)
		core.ObserveBlocks(tr.BlockStream(0), hc)
		samples = append(samples, hc.Samples...)
	}
	m := cnn.NewModel(cfg)
	m.Train(samples)
	return m
}

// NewHelperOverlay deploys helper models alongside a base predictor.
func NewHelperOverlay(cfg HelperConfig, base Predictor) *cnn.Overlay {
	return cnn.NewOverlay(cfg, base)
}

// SaveHelper serializes a trained helper's deployment weights (the §V-D
// "application metadata" the OS would load onto the BPU).
func SaveHelper(w io.Writer, m *HelperModel) error {
	_, err := m.WriteTo(w)
	return err
}

// LoadHelper deserializes a helper model saved with SaveHelper.
func LoadHelper(r io.Reader) (*HelperModel, error) { return cnn.ReadModel(r) }

// Experiments returns the registry of paper table/figure drivers.
func Experiments() []experiments.Runner { return experiments.All() }

// ExperimentConfig is the scaling configuration for experiment drivers.
// Its Workers field selects how many engine workers each driver's work
// units run on (0 = NumCPU).
type ExperimentConfig = experiments.Config

// DefaultExperimentConfig returns the configuration used by
// EXPERIMENTS.md; QuickExperimentConfig is the smoke-test variant.
func DefaultExperimentConfig() ExperimentConfig { return experiments.Default() }

// QuickExperimentConfig returns a reduced configuration for smoke runs.
func QuickExperimentConfig() ExperimentConfig { return experiments.Quick() }

// EnginePool schedules independent simulation work units onto a fixed
// set of workers; results merge deterministically in submission order.
type EnginePool = engine.Pool

// NewEnginePool returns a pool with the given worker count (<= 0 selects
// NumCPU). Pools are cheap; they hold no goroutines between calls.
func NewEnginePool(workers int) *EnginePool { return engine.New(workers) }

// ParallelMapErr runs fn(ctx, 0) .. fn(ctx, n-1) on the pool and
// returns the results in index order — byte-identical merges regardless
// of worker count. A unit error or panic fails the run (lowest-indexed
// unit wins, deterministically), a cancelled context stops dispatch and
// returns a *CancelError listing the completed units. Workers never
// outlive the call (DESIGN.md §9).
func ParallelMapErr[T any](ctx context.Context, p *EnginePool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return engine.MapErr(ctx, p, n, fn)
}

// PanicError attributes a recovered work-unit panic to its cell; the
// run fails typed, the process survives.
type PanicError = engine.PanicError

// CancelError reports a cancellation or expired deadline along with
// which work units had already completed.
type CancelError = engine.CancelError

// IsCancel reports whether err is cancellation-classified (context
// cancellation, deadline expiry, or a *CancelError) as opposed to a
// real failure. Retry policies branch on this.
func IsCancel(err error) bool { return engine.IsCancel(err) }

// RunExperiment runs one experiment driver under ctx with cfg's
// deadline applied, recovering panics into typed errors. On success it
// returns the driver's artifact; on failure a typed error and no
// artifact — never a partial one.
func RunExperiment(ctx context.Context, r experiments.Runner, cfg ExperimentConfig) (*report.Artifact, error) {
	return r.RunCtx(ctx, cfg)
}
