package pipeline

import (
	"context"
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/btb"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/workload"
	"branchlab/internal/xrand"
)

func aluInst(ip uint64) trace.Inst {
	return trace.Inst{IP: ip, Kind: trace.KindALU, DstReg: trace.NoReg,
		SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}}
}

// independentALUTrace yields n ALU instructions with no dependencies.
func independentALUTrace(n int) *trace.Buffer {
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		b.Append(aluInst(0x1000 + uint64(i%512)*4))
	}
	return b
}

// chainedALUTrace yields n ALU instructions forming one dependency chain.
func chainedALUTrace(n int) *trace.Buffer {
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		inst := aluInst(0x1000 + uint64(i%512)*4)
		inst.DstReg = 1
		inst.SrcRegs[0] = 1
		b.Append(inst)
	}
	return b
}

// branchyTrace interleaves random conditional branches with filler ALU.
func branchyTrace(n int, seed uint64, takenProb float64) *trace.Buffer {
	rng := xrand.New(seed)
	b := trace.NewBuffer(n)
	for i := 0; i < n; i++ {
		if i%8 == 7 {
			inst := trace.Inst{
				IP: 0x2000 + uint64(i%64)*32, Kind: trace.KindCondBr,
				Target: 0x2000, Taken: rng.Bool(takenProb),
				DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg},
			}
			b.Append(inst)
		} else {
			b.Append(aluInst(0x1000 + uint64(i%512)*4))
		}
	}
	return b
}

func TestIndependentALUReachesWidth(t *testing.T) {
	core := New(Skylake())
	res := core.RunBlocks(independentALUTrace(100000).BlockStream(0), Options{PerfectBP: true})
	if res.IPC < 5.0 || res.IPC > 6.01 {
		t.Errorf("independent ALU IPC = %v, want ~6 (machine width)", res.IPC)
	}
	if res.Insts != 100000 {
		t.Errorf("Insts = %d", res.Insts)
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	core := New(Skylake())
	res := core.RunBlocks(chainedALUTrace(50000).BlockStream(0), Options{PerfectBP: true})
	if res.IPC > 1.05 {
		t.Errorf("chained ALU IPC = %v, want <= ~1", res.IPC)
	}
	if res.IPC < 0.9 {
		t.Errorf("chained ALU IPC = %v, want ~1 (1-cycle ALU)", res.IPC)
	}
}

func TestMispredictionsCostIPC(t *testing.T) {
	// Same trace; random branches (unpredictable) vs perfect prediction.
	perfect := New(Skylake()).RunBlocks(branchyTrace(200000, 1, 0.5).BlockStream(0), Options{PerfectBP: true})
	predicted := New(Skylake()).RunBlocks(branchyTrace(200000, 1, 0.5).BlockStream(0),
		Options{Predictor: bp.NewGShare(14, 12)})
	if predicted.Mispreds == 0 {
		t.Fatal("random branches should mispredict")
	}
	if predicted.IPC >= perfect.IPC {
		t.Errorf("mispredictions should cost IPC: %v >= %v", predicted.IPC, perfect.IPC)
	}
	gap := perfect.IPC / predicted.IPC
	if gap < 1.1 {
		t.Errorf("IPC gap %v too small for ~6%% random branches", gap)
	}
}

func TestPredictableBranchesNearPerfect(t *testing.T) {
	// Always-taken branches are learned immediately; IPC should approach
	// the perfect-BP IPC.
	perfect := New(Skylake()).RunBlocks(branchyTrace(100000, 2, 1.0).BlockStream(0), Options{PerfectBP: true})
	predicted := New(Skylake()).RunBlocks(branchyTrace(100000, 2, 1.0).BlockStream(0),
		Options{Predictor: bp.NewBimodal(14)})
	if predicted.IPC < perfect.IPC*0.97 {
		t.Errorf("biased branches: predicted IPC %v « perfect %v", predicted.IPC, perfect.IPC)
	}
}

func TestPipelineScalingHelpsWithPerfectBP(t *testing.T) {
	tr := branchyTrace(200000, 3, 0.5)
	prev := 0.0
	for _, k := range []int{1, 4, 16} {
		res := New(Skylake().Scaled(k)).RunBlocks(tr.BlockStream(0), Options{PerfectBP: true})
		if res.IPC <= prev {
			t.Errorf("scale %dx: IPC %v did not improve on %v", k, res.IPC, prev)
		}
		prev = res.IPC
	}
}

func TestMispredictGapGrowsWithScale(t *testing.T) {
	// The paper's central Fig 1 observation: the relative IPC opportunity
	// from perfect prediction grows as the pipeline scales.
	gapAt := func(k int) float64 {
		perfect := New(Skylake().Scaled(k)).RunBlocks(branchyTrace(200000, 4, 0.5).BlockStream(0),
			Options{PerfectBP: true})
		pred := New(Skylake().Scaled(k)).RunBlocks(branchyTrace(200000, 4, 0.5).BlockStream(0),
			Options{Predictor: bp.NewGShare(14, 12)})
		return perfect.IPC / pred.IPC
	}
	g1, g8 := gapAt(1), gapAt(8)
	if g8 <= g1 {
		t.Errorf("relative opportunity should grow with scale: 1x gap %v, 8x gap %v", g1, g8)
	}
}

func TestPerfectIPsSubsetBetweenBaselineAndPerfect(t *testing.T) {
	mkTrace := func() *trace.Buffer { return branchyTrace(150000, 5, 0.5) }
	base := New(Skylake()).RunBlocks(mkTrace().BlockStream(0), Options{Predictor: bp.NewBimodal(12)})
	all := map[uint64]bool{}
	tr := mkTrace()
	for i := 0; i < tr.Len(); i++ {
		if inst := tr.At(i); inst.Kind == trace.KindCondBr {
			all[inst.IP] = true
		}
	}
	// Oracle only half the branch IPs.
	half := map[uint64]bool{}
	i := 0
	for ip := range all {
		if i%2 == 0 {
			half[ip] = true
		}
		i++
	}
	partial := New(Skylake()).RunBlocks(mkTrace().BlockStream(0),
		Options{Predictor: bp.NewBimodal(12), PerfectIPs: half})
	full := New(Skylake()).RunBlocks(mkTrace().BlockStream(0), Options{PerfectBP: true})
	if !(base.IPC < partial.IPC && partial.IPC < full.IPC) {
		t.Errorf("ordering violated: base %v, partial %v, perfect %v",
			base.IPC, partial.IPC, full.IPC)
	}
	if partial.Mispreds >= base.Mispreds {
		t.Errorf("oracled subset should reduce mispredictions: %d >= %d",
			partial.Mispreds, base.Mispreds)
	}
}

func TestMinExecsPerfectOracle(t *testing.T) {
	base := New(Skylake()).RunBlocks(branchyTrace(150000, 6, 0.5).BlockStream(0),
		Options{Predictor: bp.NewBimodal(12)})
	oracled := New(Skylake()).RunBlocks(branchyTrace(150000, 6, 0.5).BlockStream(0),
		Options{Predictor: bp.NewBimodal(12), MinExecsPerfect: 100})
	if oracled.Mispreds >= base.Mispreds {
		t.Errorf("exec-count oracle should cut mispredictions: %d >= %d",
			oracled.Mispreds, base.Mispreds)
	}
	if oracled.IPC <= base.IPC {
		t.Errorf("exec-count oracle should raise IPC: %v <= %v", oracled.IPC, base.IPC)
	}
}

func TestOutcomesSeeEveryCondBranch(t *testing.T) {
	tr := branchyTrace(80000, 7, 0.7)
	out := Predict(tr.BlockStream(0), bp.NewBimodal(10))
	res := New(Skylake()).RunBlocks(tr.BlockStream(0), Options{Predictor: bp.NewBimodal(10)})
	if out.Len() != tr.Len() {
		t.Errorf("outcomes cover %d of %d instructions", out.Len(), tr.Len())
	}
	if out.CondExecs != res.CondExecs || out.Mispreds != res.Mispreds {
		t.Errorf("outcomes %d/%d, run %d/%d", out.Mispreds, out.CondExecs, res.Mispreds, res.CondExecs)
	}
	var cond, mis uint64
	for i := 0; i < tr.Len(); i++ {
		inst := tr.At(i)
		if out.Mispredicted(i) {
			mis++
			if inst.Kind != trace.KindCondBr {
				t.Fatalf("instruction %d (%v) marked mispredicted", i, inst.Kind)
			}
		}
		if inst.Kind == trace.KindCondBr {
			cond++
		}
	}
	if cond != out.CondExecs || mis != out.Mispreds || mis == 0 || mis == cond {
		t.Errorf("bitvector %d/%d vs counts %d/%d", mis, cond, out.Mispreds, out.CondExecs)
	}
}

func TestLoadLatencyMatters(t *testing.T) {
	// Pointer-chase: each load feeds the next address; misses dominate.
	mk := func(stride uint64) *trace.Buffer {
		b := trace.NewBuffer(0)
		addr := uint64(0)
		for i := 0; i < 30000; i++ {
			b.Append(trace.Inst{
				IP: 0x1000, Kind: trace.KindLoad, MemAddr: addr,
				DstReg: 1, SrcRegs: [2]uint8{1, trace.NoReg},
			})
			addr += stride
		}
		return b
	}
	hot := New(Skylake()).RunBlocks(mk(0).BlockStream(0), Options{PerfectBP: true})      // same line: hits
	cold := New(Skylake()).RunBlocks(mk(1<<20).BlockStream(0), Options{PerfectBP: true}) // new region: misses
	if cold.IPC >= hot.IPC {
		t.Errorf("cache misses should hurt: cold %v >= hot %v", cold.IPC, hot.IPC)
	}
	if hot.IPC < 0.15 || hot.IPC > 0.35 {
		t.Errorf("chained L1-hit loads IPC = %v, want ~1/5", hot.IPC)
	}
}

func TestStoreForwardingBoundsLoad(t *testing.T) {
	// store to A; dependent-free load from A immediately after: the load
	// must not complete before the store.
	b := trace.NewBuffer(0)
	b.Append(trace.Inst{IP: 0x1, Kind: trace.KindStore, MemAddr: 0x100,
		DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
	b.Append(trace.Inst{IP: 0x2, Kind: trace.KindLoad, MemAddr: 0x100,
		DstReg: 1, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
	res := New(Skylake()).RunBlocks(b.BlockStream(0), Options{PerfectBP: true})
	if res.Insts != 2 || res.Cycles == 0 {
		t.Errorf("tiny trace failed: %+v", res)
	}
}

func TestResultAccuracy(t *testing.T) {
	r := Result{CondExecs: 100, Mispreds: 5}
	if r.Accuracy() != 0.95 {
		t.Errorf("Accuracy = %v", r.Accuracy())
	}
	if (Result{}).Accuracy() != 1 {
		t.Error("empty Accuracy should be 1")
	}
}

func TestScaledConfig(t *testing.T) {
	c := Skylake().Scaled(4)
	base := Skylake()
	if c.FetchWidth != base.FetchWidth*4 || c.ROBSize != base.ROBSize*4 ||
		c.SchedSize != base.SchedSize*4 || c.RetireWidth != base.RetireWidth*4 {
		t.Errorf("Scaled(4) wrong: %+v", c)
	}
	if c.ScaleFactor != 4 {
		t.Errorf("ScaleFactor = %d", c.ScaleFactor)
	}
	if got := Skylake().Scaled(0).FetchWidth; got != base.FetchWidth {
		t.Errorf("Scaled(0) should clamp to 1x, got fetch %d", got)
	}
}

func TestWidthLimiter(t *testing.T) {
	w := newWidthLimiter(2)
	c1 := w.reserve(10)
	c2 := w.reserve(10)
	c3 := w.reserve(10)
	if c1 != 10 || c2 != 10 || c3 != 11 {
		t.Errorf("reservations: %d %d %d", c1, c2, c3)
	}
	// Advancing far clears old slots.
	c4 := w.reserve(10 + widthWindow)
	if c4 != 10+widthWindow {
		t.Errorf("post-wrap reservation: %d", c4)
	}
}

func TestTAGEDrivenRun(t *testing.T) {
	// End-to-end: TAGE-SC-L through the pipeline on a predictable trace
	// should land within a few percent of perfect.
	tr := branchyTrace(150000, 8, 0.9)
	perfect := New(Skylake()).RunBlocks(tr.BlockStream(0), Options{PerfectBP: true})
	pred := New(Skylake()).RunBlocks(tr.BlockStream(0), Options{Predictor: tage.New(tage.Config8KB())})
	if pred.Accuracy() < 0.85 {
		t.Errorf("TAGE accuracy on 90%%-biased branches = %v", pred.Accuracy())
	}
	if pred.IPC > perfect.IPC {
		t.Errorf("predictor IPC %v exceeds perfect %v", pred.IPC, perfect.IPC)
	}
}

// sink keeps benchmarked results live.
var sink Result

// BenchmarkPipelineALU times a saturated independent-ALU stream through
// the composed passes: the width limiters' worst case.
func BenchmarkPipelineALU(b *testing.B) {
	tr := independentALUTrace(100000)
	core := New(Skylake())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = core.RunBlocks(tr.BlockStream(0), Options{PerfectBP: true})
	}
}

// BenchmarkPipelineTAGE times a TAGE-SC-L 8KB run through the composed
// passes: annotation, prediction and schedule.
func BenchmarkPipelineTAGE(b *testing.B) {
	tr := branchyTrace(100000, 1, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core := New(Skylake())
		sink = core.RunBlocks(tr.BlockStream(0), Options{Predictor: tage.New(tage.Config8KB())})
	}
}

// BenchmarkPipelineSchedule times the schedule pass alone on one Quick
// workload trace at 1x, over a precomputed annotation and TAGE-SC-L 8KB
// outcomes: the per-cell cost of an IPC driver once the pass tables are
// built.
func BenchmarkPipelineSchedule(b *testing.B) { benchSchedule(b, 1) }

// BenchmarkPipelineScheduleWide is BenchmarkPipelineSchedule at 16x:
// 96-wide with an 896-entry store queue, where a scan of the whole
// forwarding window per load would dominate.
func BenchmarkPipelineScheduleWide(b *testing.B) { benchSchedule(b, 16) }

func benchSchedule(b *testing.B, scale int) {
	s, _ := workload.ByName("605.mcf_s")
	tr, err := s.RecordCtx(context.Background(), 0, quickBudget)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Skylake().Scaled(scale)
	ann := Annotate(tr.BlockStream(0), cfg)
	out := Predict(tr.BlockStream(0), tage.New(tage.Config8KB()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = Schedule(tr.BlockStream(0), cfg, ann, out, Options{})
	}
}

func TestBTBMissesCostFetchBubbles(t *testing.T) {
	// A large set of taken branches with distinct targets: with target
	// prediction disabled vs enabled-but-cold, IPC differs; after the BTB
	// warms, repeated executions recover.
	mk := func() *trace.Buffer {
		b := trace.NewBuffer(0)
		for rep := 0; rep < 200; rep++ {
			for i := 0; i < 64; i++ {
				ip := 0x4000 + uint64(i)*256
				b.Append(trace.Inst{IP: ip, Kind: trace.KindCondBr, Taken: true,
					Target: ip + 128, DstReg: trace.NoReg,
					SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
				for f := 0; f < 6; f++ {
					b.Append(aluInst(ip + 4 + uint64(f)*4))
				}
			}
		}
		return b
	}
	on := Skylake()
	off := Skylake()
	off.BTBMissPenalty = 0
	resOn := New(on).RunBlocks(mk().BlockStream(0), Options{PerfectBP: true})
	resOff := New(off).RunBlocks(mk().BlockStream(0), Options{PerfectBP: true})
	if resOn.IPC > resOff.IPC {
		t.Errorf("BTB modeling should not raise IPC: %v > %v", resOn.IPC, resOff.IPC)
	}
	core := New(on)
	core.RunBlocks(mk().BlockStream(0), Options{PerfectBP: true})
	st := core.BTBStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("BTB stats look wrong: %+v", st)
	}
	// Warmed-up hit rate should dominate: 64 statics x 200 reps.
	if float64(st.Hits)/float64(st.Lookups) < 0.9 {
		t.Errorf("BTB hit rate %v too low after warmup", float64(st.Hits)/float64(st.Lookups))
	}
}

func TestBTBStatsDisabled(t *testing.T) {
	cfg := Skylake()
	cfg.BTBMissPenalty = 0
	core := New(cfg)
	core.RunBlocks(independentALUTrace(100).BlockStream(0), Options{PerfectBP: true})
	if core.BTBStats() != (btb.Stats{}) {
		t.Error("disabled BTB should report zero stats")
	}
}
