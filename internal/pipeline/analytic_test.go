package pipeline

import (
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// Closed-form checks of the schedule pass: each derives the expected
// timing from the configuration alone, not from a recorded run.

// TestIndependentALURetiresAtWidth: once the instruction cache is warm
// and the pipeline full, n independent 1-cycle ALU instructions on a
// core scaled by k retire in exactly n/(6k) cycles — the machine width.
func TestIndependentALURetiresAtWidth(t *testing.T) {
	for _, k := range []int{1, 2, 4, 8, 16, 32} {
		cfg := Skylake().Scaled(k)
		w := cfg.RetireWidth
		warm, n := 2000*w, 3000*w
		short := New(cfg).RunBlocks(independentALUTrace(warm).BlockStream(0), Options{PerfectBP: true})
		long := New(cfg).RunBlocks(independentALUTrace(warm+n).BlockStream(0), Options{PerfectBP: true})
		if got := long.Cycles - short.Cycles; got*uint64(w) != uint64(n) {
			t.Errorf("%dx: %d more instructions took %d more cycles, want %d (IPC %d)",
				k, n, got, n/w, w)
		}
	}
}

// TestDependencyChainTakesOneCyclePerOp: an n-op chain of 1-cycle ALU
// instructions issues one op per cycle from the first op's issue, which
// waits only for its cold instruction fetch (the L1I's memory latency)
// and the front end. The last op retires one cycle after it completes:
// Cycles = n + FrontDepth + coldFetch + 1 at every scale.
func TestDependencyChainTakesOneCyclePerOp(t *testing.T) {
	const n = 20000
	for _, k := range []int{1, 4, 16} {
		cfg := Skylake().Scaled(k)
		core := New(cfg)
		lats := core.Hierarchy().L1I.Latencies()
		coldFetch := lats[len(lats)-1]
		res := core.RunBlocks(chainedALUTrace(n).BlockStream(0), Options{PerfectBP: true})
		if want := n + cfg.FrontDepth + coldFetch + 1; res.Cycles != want {
			t.Errorf("%dx: %d-op chain took %d cycles, want %d", k, n, res.Cycles, want)
		}
	}
}

// TestMispredictDelaysNextFetch: after a mispredicted branch resolves,
// fetch restarts no earlier than RedirectPenalty cycles later, so the
// next instruction cannot complete before resolution + RedirectPenalty
// + FrontDepth + 1. The schedule pass runs one instruction at a time
// and reads completion cycles from the register scoreboard: branches
// write register 5, the instruction after each branch register 6.
func TestMispredictDelaysNextFetch(t *testing.T) {
	rng := xrand.New(3)
	var insts []trace.Inst
	for i := 0; i < 4000; i++ {
		ip := 0x3000 + uint64(i%97)*64
		insts = append(insts, trace.Inst{IP: ip, Kind: trace.KindCondBr, Target: ip + 32, Taken: rng.Bool(0.5),
			DstReg: 5, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
		next := aluInst(ip + 4)
		next.DstReg = 6
		insts = append(insts, next)
		for f := 0; f < rng.Intn(6); f++ {
			insts = append(insts, aluInst(ip+8+uint64(f)*4))
		}
	}
	b := trace.FromSlice(insts)
	for _, k := range []int{1, 4} {
		cfg := Skylake().Scaled(k)
		ann := Annotate(b.BlockStream(0), cfg)
		out := Predict(b.BlockStream(0), bp.NewBimodal(8))
		s := newScheduler(cfg, ann.l1i, ann.l1d, Options{})
		var resolved uint64
		checked := 0
		for i := range insts {
			s.block(insts[i:i+1], ann.marks[i:i+1], out.miss, i)
			if i > 0 && out.Mispredicted(i-1) {
				checked++
				if done := s.regReady[6]; done < resolved+cfg.RedirectPenalty+cfg.FrontDepth+1 {
					t.Fatalf("%dx: instruction %d completed at %d, branch resolved at %d", k, i, done, resolved)
				}
			}
			resolved = s.regReady[5]
		}
		if checked < 1000 {
			t.Fatalf("%dx: only %d mispredictions checked", k, checked)
		}
	}
}
