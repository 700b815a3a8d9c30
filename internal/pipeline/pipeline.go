// Package pipeline implements a trace-driven out-of-order core timing
// model in the style of ChampSim's Skylake configuration, the instrument
// the paper uses to convert branch prediction accuracy into IPC (Figs 1,
// 5, 7, 8).
//
// The model propagates per-instruction timestamps (fetch, dispatch, issue,
// complete, retire) under the capacity constraints the paper scales in its
// pipeline study — fetch/decode/issue/retire width, ROB, scheduler and
// load/store queues — plus data dependencies through registers and
// store-to-load forwarding, cache-latency variation, and branch
// misprediction redirects that restart fetch after the branch resolves.
// It is amortized O(1) per instruction and deterministic.
//
// A run is three passes over the trace. Annotate walks the cache
// hierarchy and BTB, recording per instruction which level served it
// and whether a taken branch's target missed. Predict walks a branch
// predictor, recording which conditional branches it mispredicted.
// Schedule propagates the timestamps, reading both. The model has no
// wrong-path fetch and Config.Scaled leaves the caches and BTB alone,
// so the first two passes depend on the trace (and predictor) only:
// one annotation and one prediction stream serve every pipeline scale
// and every oracle regime over the same predictor. Core.RunBlocks
// composes the three passes block by block.
package pipeline

import (
	"fmt"

	"branchlab/internal/bp"
	"branchlab/internal/btb"
	"branchlab/internal/cache"
	"branchlab/internal/trace"
)

// Config describes the core. All widths/capacities are per the baseline;
// use Scaled to produce the paper's 2x-32x configurations.
type Config struct {
	Name string

	FetchWidth  int // instructions fetched per cycle
	IssueWidth  int // instructions entering execution per cycle
	RetireWidth int // instructions retired per cycle

	ROBSize   int // reorder buffer entries
	SchedSize int // scheduler (reservation station) entries
	LQSize    int // load queue entries
	SQSize    int // store queue entries

	FrontDepth      uint64 // fetch-to-dispatch stages
	RedirectPenalty uint64 // extra cycles to restart fetch after a mispredict

	// BTBMissPenalty is the decode-redirect bubble charged when a taken
	// branch's target is not produced by the BTB/RAS at fetch. Zero
	// disables target-prediction modeling.
	BTBMissPenalty uint64
	BTB            btb.Config

	Caches cache.HierarchyConfig

	// Scale factor this config was derived with (1 = baseline).
	ScaleFactor int
}

// Skylake returns the baseline configuration, matching ChampSim's Skylake
// model: 6-wide front end, 224-entry ROB, 97-entry scheduler, 72/56-entry
// load/store queues.
func Skylake() Config {
	return Config{
		Name:            "skylake-1x",
		FetchWidth:      6,
		IssueWidth:      6,
		RetireWidth:     6,
		ROBSize:         224,
		SchedSize:       97,
		LQSize:          72,
		SQSize:          56,
		FrontDepth:      10,
		RedirectPenalty: 12,
		BTBMissPenalty:  3,
		BTB:             btb.DefaultConfig(),
		Caches:          cache.DefaultHierarchy(),
		ScaleFactor:     1,
	}
}

// Scaled multiplies the pipeline-capacity resources by k, as in the
// paper's Fig 1 study ("fetch, decode, execution, load/store buffer, ROB,
// scheduler, and retire resources"). Cache geometry and latencies are
// intentionally unchanged.
func (c Config) Scaled(k int) Config {
	if k < 1 {
		k = 1
	}
	s := c
	s.Name = fmt.Sprintf("skylake-%dx", k)
	s.FetchWidth *= k
	s.IssueWidth *= k
	s.RetireWidth *= k
	s.ROBSize *= k
	s.SchedSize *= k
	s.LQSize *= k
	s.SQSize *= k
	s.ScaleFactor = k
	return s
}

// Options selects the prediction regime for a run.
type Options struct {
	// Predictor drives speculation; ignored when PerfectBP.
	Predictor bp.Predictor
	// PerfectBP models oracle prediction for every conditional branch.
	PerfectBP bool
	// PerfectIPs are predicted perfectly regardless of the predictor
	// ("Perfect H2Ps" in Figs 1 and 5). The predictor is still trained on
	// these branches so its history state matches the deployment.
	PerfectIPs map[uint64]bool
	// MinExecsPerfect, when > 0, perfectly predicts any IP whose dynamic
	// execution count so far exceeds the threshold (Fig 8's ">1000" and
	// ">100" oracles).
	MinExecsPerfect uint64
}

// Result reports a run's timing and prediction outcomes.
type Result struct {
	Insts      uint64
	Cycles     uint64
	CondExecs  uint64
	Mispreds   uint64
	IPC        float64
	MPKI       float64
	L1DMissPKI float64
}

// Accuracy returns conditional-branch prediction accuracy.
func (r Result) Accuracy() float64 {
	if r.CondExecs == 0 {
		return 1
	}
	return 1 - float64(r.Mispreds)/float64(r.CondExecs)
}

// Core is a reusable pipeline simulator instance. Its cache hierarchy
// and BTB persist across runs.
type Core struct {
	cfg  Config
	hier *cache.Hierarchy
	btb  *btb.BTB
}

// New returns a Core for the configuration.
func New(cfg Config) *Core {
	c := &Core{cfg: cfg, hier: cache.NewHierarchy(cfg.Caches)}
	if cfg.BTBMissPenalty > 0 {
		c.btb = btb.New(cfg.BTB)
	}
	return c
}

// BTBStats returns target-prediction statistics (zero value when target
// prediction is disabled).
func (c *Core) BTBStats() btb.Stats {
	if c.btb == nil {
		return btb.Stats{}
	}
	return c.btb.Stats()
}

// Hierarchy exposes the cache hierarchy (for stats reporting).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

func execLatency(kind trace.Kind) uint64 {
	switch kind {
	case trace.KindALU, trace.KindNop:
		return 1
	case trace.KindMul:
		return 3
	case trace.KindDiv:
		return 18
	case trace.KindFP:
		return 4
	case trace.KindStore:
		return 1
	default: // branches resolve in one cycle once operands are ready
		return 1
	}
}

// Run simulates the stream to completion and returns timing results.
// The stream is consumed in blocks (zero-copy for Buffer replays), the
// same batching discipline as core.Run.
func (c *Core) Run(s trace.Stream, opt Options) Result {
	return c.RunBlocks(trace.AsBlocks(s, trace.DefaultBlockLen), opt)
}

// RunBlocks is Run over an explicit block stream: the three passes
// composed block by block. Each block is annotated against the core's
// cache hierarchy and BTB, run through the predictor (unless PerfectBP),
// then scheduled. The passes share no state, so this equals
// Schedule(Annotate(bs), Predict(bs)) over a fresh core.
func (c *Core) RunBlocks(bs trace.BlockStream, opt Options) Result {
	a := newAnnotator(c.hier, c.btb)
	s := newScheduler(c.cfg, a.l1i, a.l1d, opt)
	var ps *predStream
	if !opt.PerfectBP && opt.Predictor != nil {
		ps = newPredStream(opt.Predictor)
	}
	var marks []byte
	var miss []uint64
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		marks = resize(marks, len(blk))
		a.block(blk, marks)
		if ps != nil {
			miss = resize(miss, bitWords(len(blk)))
			clear(miss)
			ps.block(blk, miss, 0)
		}
		s.block(blk, marks, miss, 0)
	}
	return s.result(c.hier.L1D.Stats().Misses)
}

// resize returns buf with length n, reallocating only to grow.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
