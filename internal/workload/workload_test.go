package workload

import (
	"bytes"
	"context"
	"testing"

	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/tracecache"
	"branchlab/internal/tracestore"
)

func TestSuitesComplete(t *testing.T) {
	spec := SPECint2017Like()
	if len(spec) != 9 {
		t.Errorf("SPECint suite has %d workloads, want 9 (Table I)", len(spec))
	}
	lcf := LCFLike()
	if len(lcf) != 6 {
		t.Errorf("LCF suite has %d workloads, want 6 (Table II)", len(lcf))
	}
	names := map[string]bool{}
	for _, s := range append(spec, lcf...) {
		if names[s.Name] {
			t.Errorf("duplicate workload name %q", s.Name)
		}
		names[s.Name] = true
		if s.NumInputs < 1 {
			t.Errorf("%s: NumInputs = %d", s.Name, s.NumInputs)
		}
		if s.Paper.Accuracy <= 0.5 || s.Paper.Accuracy >= 1 {
			t.Errorf("%s: paper accuracy %v out of range", s.Name, s.Paper.Accuracy)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("605.mcf_s"); !ok {
		t.Error("605.mcf_s not found")
	}
	if _, ok := ByName("game"); !ok {
		t.Error("game not found")
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("nonexistent workload found")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	s, _ := ByName("605.mcf_s")
	a := mustRecord(t, s, 0, 100000)
	b := mustRecord(t, s, 0, 100000)
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("instruction %d differs between identical runs", i)
		}
	}
}

func TestInputsDiffer(t *testing.T) {
	s, _ := ByName("605.mcf_s")
	a := mustRecord(t, s, 0, 50000)
	b := mustRecord(t, s, 1, 50000)
	same := 0
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	for i := 0; i < n; i++ {
		if a.At(i) == b.At(i) {
			same++
		}
	}
	if same == n {
		t.Error("different inputs produced identical traces")
	}
}

func TestInputOutOfRangePanics(t *testing.T) {
	s, _ := ByName("605.mcf_s")
	defer func() {
		if recover() == nil {
			t.Error("out-of-range input did not panic")
		}
	}()
	s.Payload(s.NumInputs)
}

func TestBudgetRespected(t *testing.T) {
	s, _ := ByName("641.leela_s")
	st := s.Stream(context.Background(), 0, 123456)
	defer st.Close()
	var n int
	for blk := st.NextBlock(); len(blk) > 0; blk = st.NextBlock() {
		n += len(blk)
	}
	if n != 123456 {
		t.Errorf("stream yielded %d instructions, want 123456", n)
	}
}

func TestTraceShape(t *testing.T) {
	for _, s := range append(SPECint2017Like(), LCFLike()...) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			sum := summarize(t, s, 200000)
			if sum.Insts != 200000 {
				t.Fatalf("insts = %d", sum.Insts)
			}
			density := float64(sum.CondBranches) / float64(sum.Insts)
			if density < 0.08 || density > 0.35 {
				t.Errorf("conditional branch density %v outside [0.08, 0.35]", density)
			}
			if sum.StaticCondBr < 50 {
				t.Errorf("static footprint %d too small", sum.StaticCondBr)
			}
			if sum.Loads == 0 || sum.Stores == 0 {
				t.Error("trace has no memory traffic")
			}
			if sum.TakenRate < 0.3 || sum.TakenRate > 0.95 {
				t.Errorf("taken rate %v looks wrong", sum.TakenRate)
			}
		})
	}
}

// shape holds the aggregate counts TestTraceShape bounds.
type shape struct {
	Insts, CondBranches, Loads, Stores uint64
	StaticCondBr                       int
	TakenRate                          float64
}

// summarize streams input 0 of s and aggregates its shape.
func summarize(t *testing.T, s *Spec, budget uint64) shape {
	t.Helper()
	st := s.Stream(context.Background(), 0, budget)
	defer st.Close()
	var sum shape
	var taken uint64
	static := make(map[uint64]bool)
	for blk := st.NextBlock(); len(blk) > 0; blk = st.NextBlock() {
		for i := range blk {
			inst := &blk[i]
			sum.Insts++
			switch inst.Kind {
			case trace.KindCondBr:
				sum.CondBranches++
				static[inst.IP] = true
				if inst.Taken {
					taken++
				}
			case trace.KindLoad:
				sum.Loads++
			case trace.KindStore:
				sum.Stores++
			}
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	sum.StaticCondBr = len(static)
	if sum.CondBranches > 0 {
		sum.TakenRate = float64(taken) / float64(sum.CondBranches)
	}
	return sum
}

// TestLCFHasLargerFootprintAndLowerAccuracy checks the paper's defining
// suite-level contrast (Table I vs Table II): LCF applications have many
// more static branches per slice and significantly lower accuracy.
func TestLCFHasLargerFootprintAndLowerAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	const budget = 600000
	measure := func(s *Spec) (float64, int) {
		st := s.Stream(context.Background(), 0, budget)
		defer st.Close()
		col := core.NewCollector(budget)
		run := core.RunBlocks(st, tage.New(tage.Config8KB()), col)
		return run.Accuracy(), col.StaticBranches()
	}
	gameAcc, gameStatic := measure(mustSpec(t, "game"))
	mcfAcc, mcfStatic := measure(mustSpec(t, "605.mcf_s"))
	if gameAcc >= mcfAcc {
		t.Errorf("game accuracy (%v) should be below mcf (%v)", gameAcc, mcfAcc)
	}
	if gameStatic <= mcfStatic {
		t.Errorf("game static footprint (%d) should exceed mcf (%d)", gameStatic, mcfStatic)
	}
}

// TestCalibrationBands runs a quick TAGE-SC-L 8KB pass per workload and
// checks the measured accuracy lands within a loose band of the paper's
// Table I/II value. The tight comparison lives in EXPERIMENTS.md; this
// guards against regressions that would silently invalidate experiments.
func TestCalibrationBands(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	const budget = 600000
	const tolerance = 0.06
	for _, s := range append(SPECint2017Like(), LCFLike()...) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			st := s.Stream(context.Background(), 0, budget)
			defer st.Close()
			run := core.RunBlocks(st, tage.New(tage.Config8KB()))
			if diff := run.Accuracy() - s.Paper.Accuracy; diff > tolerance || diff < -tolerance {
				t.Errorf("accuracy %.4f vs paper %.4f (|Δ| > %.2f)",
					run.Accuracy(), s.Paper.Accuracy, tolerance)
			}
		})
	}
}

// TestH2PCountsNearPaper verifies H2P screening finds approximately the
// Table I H2P population for a few representative workloads.
func TestH2PCountsNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	cases := []struct {
		name     string
		min, max int // acceptable per-slice band
	}{
		{"605.mcf_s", 6, 14},
		{"641.leela_s", 20, 50},
		{"600.perlbench_s", 1, 4},
		{"nosql", 1, 6},
	}
	const budget = 1_000_000
	const sliceLen = 500_000
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s := mustSpec(t, c.name)
			st := s.Stream(context.Background(), 0, budget)
			defer st.Close()
			col := core.NewCollector(sliceLen)
			core.RunBlocks(st, tage.New(tage.Config8KB()), col)
			rep := core.PaperCriteria().Scaled(sliceLen).Screen(col)
			avg := rep.AvgPerSlice()
			if avg < float64(c.min) || avg > float64(c.max) {
				t.Errorf("H2Ps per slice = %.1f, want in [%d, %d] (paper: %d)",
					avg, c.min, c.max, s.Paper.H2PsPerSlice)
			}
		})
	}
}

// TestH2PsRecurAcrossInputs checks Table I's key claim: the same static
// H2P branches appear across distinct application inputs.
func TestH2PsRecurAcrossInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration test")
	}
	s := mustSpec(t, "605.mcf_s")
	const budget = 600000
	var reports []*core.H2PReport
	for input := 0; input < 3; input++ {
		st := s.Stream(context.Background(), input, budget)
		col := core.NewCollector(budget / 2)
		core.RunBlocks(st, tage.New(tage.Config8KB()), col)
		st.Close()
		reports = append(reports, core.PaperCriteria().Scaled(budget/2).Screen(col))
	}
	agg := core.Aggregate(reports)
	if agg.AppearingIn(3) == 0 {
		t.Error("no H2P recurs across all 3 inputs; Table I requires recurring H2Ps")
	}
}

func mustSpec(t *testing.T, name string) *Spec {
	t.Helper()
	s, ok := ByName(name)
	if !ok {
		t.Fatalf("workload %q not found", name)
	}
	return s
}

// mustRecord is Spec.RecordCtx under the background context, failing
// the test on error.
func mustRecord(t *testing.T, s *Spec, input int, budget uint64) *trace.Buffer {
	t.Helper()
	buf, err := s.RecordCtx(context.Background(), input, budget)
	if err != nil {
		t.Fatalf("%s: RecordCtx: %v", s.Name, err)
	}
	return buf
}

// TestTraceFileRoundTrip stores a realistic workload trace in the BLT1
// format and verifies the decoded stream drives a predictor to an
// identical outcome — the offline trace-library workflow of §V-B.
func TestTraceFileRoundTrip(t *testing.T) {
	s := mustSpec(t, "602.gcc_s")
	orig := mustRecord(t, s, 0, 100000)

	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := 0; i < orig.Len(); i++ {
		inst := orig.At(i)
		if err := w.WriteInst(&inst); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	direct := core.RunBlocks(orig.BlockStream(0), tage.New(tage.Config8KB()))
	decoded := core.RunBlocks(trace.NewReader(&buf), tage.New(tage.Config8KB()))
	if direct != decoded {
		t.Errorf("decoded trace diverges: %+v vs %+v", direct, decoded)
	}
}

// TestStoreRestartReuseAllWorkloads is the zoo-wide persistence drill:
// every registered workload records once into a shared trace store,
// then a simulated restart (fresh cache, fresh store handle, same
// directory) replays each — byte-identically and without a single
// re-recording. This is the store's whole contract in one test:
// content keys are stable across processes, headers restore without
// recording, and store-served slices carry exact bytes.
func TestStoreRestartReuseAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("records all 15 workloads twice")
	}
	const budget = 60_000
	dir := t.TempDir()
	all := append(SPECint2017Like(), LCFLike()...)

	replay := func(c *tracecache.Cache) map[string][]trace.Inst {
		out := make(map[string][]trace.Inst, len(all))
		for _, s := range all {
			src := s.Source(0, budget)
			v, err := c.RecordCtx(context.Background(), s.Name, 0, budget, src)
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			insts := make([]trace.Inst, 0, v.Len())
			st := v.BlockStream(0)
			for blk := st.NextBlock(); len(blk) > 0; blk = st.NextBlock() {
				insts = append(insts, blk...)
			}
			out[s.Name] = insts
		}
		return out
	}

	st1, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1 := tracecache.NewSliced(0, 16384)
	c1.SetStore(st1)
	want := replay(c1)
	if m := c1.Stats().Misses; m != uint64(len(all)) {
		t.Fatalf("cold run performed %d recordings, want %d", m, len(all))
	}
	st1.Close()

	st2, err := tracestore.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2 := tracecache.NewSliced(0, 16384)
	c2.SetStore(st2)
	got := replay(c2)
	cs := c2.Stats()
	if cs.Misses != 0 {
		t.Fatalf("warm run performed %d recordings, want 0", cs.Misses)
	}
	if cs.DiskHeaderHits != uint64(len(all)) {
		t.Fatalf("warm run restored %d headers, want %d", cs.DiskHeaderHits, len(all))
	}
	if ss := st2.Stats(); ss.SliceWrites != 0 || ss.Rejects != 0 {
		t.Fatalf("warm store stats = %+v, want no writes, no rejects", ss)
	}
	for _, s := range all {
		a, b := want[s.Name], got[s.Name]
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d across restart", s.Name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: instruction %d differs across restart", s.Name, i)
			}
		}
	}
}
