// Package bp defines the branch-predictor interface used throughout the
// repository and implements the classical baseline predictors the paper
// surveys in §II: static, bimodal, gshare/gselect, two-level local,
// perceptron, PPM-style tagged matching, a loop predictor, and a
// tournament combiner.
//
// The deployment contract mirrors CBP2016: a predictor sees the
// instruction pointer at prediction time and is trained with the resolved
// branch, target and direction, at retirement; predictors that model path
// history additionally observe every control-flow instruction via the
// BranchObserver interface.
package bp

import "branchlab/internal/trace"

// Predictor predicts conditional branch directions.
//
// The driver calls Predict(ip), records the prediction, then calls
// Train(ip, target, taken, pred) with the resolved branch. Train is
// always called exactly once per Predict, in program order (retirement
// order in the simulated machine).
type Predictor interface {
	// Predict returns the predicted direction for the conditional branch
	// at ip.
	Predict(ip uint64) bool
	// Train updates the predictor with the resolved branch: its taken
	// target and direction. Predictors that do not use the target ignore
	// it; a wrapper passes it on to every predictor it trains. pred must
	// be the value Predict returned for this dynamic branch.
	Train(ip, target uint64, taken, pred bool)
	// Name identifies the predictor in reports.
	Name() string
}

// BranchObserver is implemented by predictors that consume all
// control-flow instructions (not just conditionals) to build path or
// global history, as TAGE-SC-L does.
type BranchObserver interface {
	// ObserveBranch is called for every non-conditional control-flow
	// instruction at retirement. Conditional branches are delivered
	// through Train instead.
	ObserveBranch(ip, target uint64, kind trace.Kind, taken bool)
}

// BlockRunner is implemented by predictors that can process a whole
// replay block internally — predicting, training and observing every
// instruction in blk with the per-branch dispatch inlined — and return
// the conditional-branch and misprediction counts. core.RunBlocks hands
// blocks straight to it when the run has no observers, reducing the
// driver/predictor boundary from several interface calls per branch to
// one per block.
//
// RunBlock must evolve predictor state exactly as the equivalent
// per-instruction sequence of Predict, Train and ObserveBranch calls
// would: implementations are interchangeable with the scalar interface
// at any block boundary, and the measurement loop relies on that
// equivalence for byte-identical artifacts. blk follows the
// trace.BlockStream aliasing contract — it must be treated as read-only
// and not retained past the call.
type BlockRunner interface {
	RunBlock(blk []trace.Inst) (condExecs, mispreds uint64)
}

// Observe forwards a non-conditional branch to p if it implements
// BranchObserver.
func Observe(p Predictor, ip, target uint64, kind trace.Kind, taken bool) {
	if o, ok := p.(BranchObserver); ok {
		o.ObserveBranch(ip, target, kind, taken)
	}
}

// ctrInc and ctrDec saturate an n-bit two's-complement counter held in an
// int8, the building block of almost every table-based predictor.

func ctrInc(c int8, max int8) int8 {
	if c < max {
		return c + 1
	}
	return c
}

func ctrDec(c int8, min int8) int8 {
	if c > min {
		return c - 1
	}
	return c
}

// ctrUpdate moves a saturating counter toward taken (+) or not-taken (-)
// within [min, max].
func ctrUpdate(c int8, taken bool, min, max int8) int8 {
	if taken {
		return ctrInc(c, max)
	}
	return ctrDec(c, min)
}

// hashIP mixes an instruction pointer into a table index of width bits.
func hashIP(ip uint64, bits uint) uint64 {
	x := ip
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x & ((1 << bits) - 1)
}

// historyReg is a bounded global-history shift register, newest bit in the
// low position.
type historyReg struct {
	bits uint64
	len  uint
}

func (h *historyReg) push(taken bool) {
	h.bits <<= 1
	if taken {
		h.bits |= 1
	}
	if h.len < 64 {
		h.len++
	}
}

func (h *historyReg) value(n uint) uint64 {
	if n > 64 {
		n = 64
	}
	if n == 64 {
		return h.bits
	}
	return h.bits & ((1 << n) - 1)
}
