package pipeline

import (
	"branchlab/internal/bp"
	"branchlab/internal/trace"
)

// Outcomes is a predictor's side of a timing run over one trace: which
// conditional branches it mispredicted, as a bitvector over instruction
// indices. The predictor sees the trace alone — the model fetches no
// wrong path, so no timing feeds back into it — and the oracle regimes
// (Options.PerfectIPs, Options.MinExecsPerfect) still predict and
// train every branch. One Outcomes therefore serves every pipeline
// scale and every oracle regime over the same predictor; Schedule
// applies the oracle as a mask. Outcomes is immutable once built and
// safe to share.
type Outcomes struct {
	miss []uint64 // bit i set: instruction i is a mispredicted conditional branch
	n    int      // instructions covered

	CondExecs uint64 // conditional branches predicted
	Mispreds  uint64 // of which mispredicted
}

// Len returns the number of instructions covered.
func (o *Outcomes) Len() int { return o.n }

// Mispredicted reports whether instruction i was a conditional branch
// the predictor got wrong.
func (o *Outcomes) Mispredicted(i int) bool { return o.miss[i>>6]&(1<<(i&63)) != 0 }

// bitWords is the number of words a bitvector over n bits takes.
func bitWords(n int) int { return (n + 63) >> 6 }

// Predict runs p over bs and records its outcomes. Per instruction it
// makes the fused model's calls in its order: Predict then Train for a
// conditional branch, ObserveBranch for any other branch when p
// implements bp.BranchObserver.
func Predict(bs trace.BlockStream, p bp.Predictor) *Outcomes {
	ps := newPredStream(p)
	o := &Outcomes{}
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		base := o.n
		o.n += len(blk)
		if w := bitWords(o.n); w > len(o.miss) {
			o.miss = append(o.miss, make([]uint64, w-len(o.miss))...)
		}
		cond, mis := ps.block(blk, o.miss, base)
		o.CondExecs += cond
		o.Mispreds += mis
	}
	return o
}

// predStream is the prediction pass's state: the predictor with its
// optional BranchObserver resolved once.
type predStream struct {
	p  bp.Predictor
	bo bp.BranchObserver
}

func newPredStream(p bp.Predictor) *predStream {
	ps := &predStream{p: p}
	ps.bo, _ = p.(bp.BranchObserver)
	return ps
}

// block runs the predictor over blk, setting bit base+j of miss for
// every mispredicted conditional branch blk[j], and returns the
// conditional-branch and misprediction counts.
func (ps *predStream) block(blk []trace.Inst, miss []uint64, base int) (cond, mis uint64) {
	for j := range blk {
		inst := &blk[j]
		if inst.Kind == trace.KindCondBr {
			cond++
			pred := ps.p.Predict(inst.IP)
			ps.p.Train(inst.IP, inst.Target, inst.Taken, pred)
			if pred != inst.Taken {
				mis++
				i := base + j
				miss[i>>6] |= 1 << (i & 63)
			}
		} else if ps.bo != nil && inst.Kind.IsBranch() {
			ps.bo.ObserveBranch(inst.IP, inst.Target, inst.Kind, inst.Taken)
		}
	}
	return cond, mis
}
