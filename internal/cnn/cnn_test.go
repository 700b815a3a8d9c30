package cnn

import (
	"testing"

	"branchlab/internal/bp"
	"branchlab/internal/core"
	"branchlab/internal/tage"
	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// correlatedTrace builds a trace with an H2P whose direction copies a
// dependency branch's direction from a variable distance back — the
// pattern TAGE struggles with and position-pooled helpers learn.
func correlatedTrace(seed uint64, n int, noise float64) *trace.Buffer {
	rng := xrand.New(seed)
	b := trace.NewBuffer(0)
	cond := func(ip uint64, taken bool) {
		b.Append(trace.Inst{IP: ip, Kind: trace.KindCondBr, Taken: taken, Target: ip + 64,
			DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
	}
	v := uint64(1000)
	for b.Len() < n {
		v += uint64(rng.Intn(3)) - 1
		dep := (v>>4)&1 == 1
		cond(0xD00, dep)
		for j, gap := 0, rng.Intn(6); j < gap; j++ {
			cond(0xE00+uint64(rng.Intn(8))*64, true)
		}
		cond(0xAAA0, dep != rng.Bool(noise)) // the H2P
		for j := 0; j < 4; j++ {
			b.Append(trace.Inst{IP: 0x100, Kind: trace.KindALU,
				DstReg: trace.NoReg, SrcRegs: [2]uint8{trace.NoReg, trace.NoReg}})
		}
	}
	return b
}

const h2pIP = 0xAAA0

func collect(t testing.TB, cfg Config, seed uint64, n int) []Sample {
	t.Helper()
	col := NewHistoryCollector(cfg, h2pIP)
	tr := correlatedTrace(seed, n, 0.1)
	core.RunBlocks(tr.BlockStream(0), bp.NewStatic(true), col)
	if len(col.Samples) == 0 {
		t.Fatal("no samples collected")
	}
	return col.Samples
}

func TestEncodeFoldsDirection(t *testing.T) {
	cfg := DefaultConfig()
	a := Encode(cfg, 0x1234, true)
	b := Encode(cfg, 0x1234, false)
	if a == b {
		t.Error("direction not encoded")
	}
	if a/2 != b/2 {
		t.Error("same IP must share a bucket")
	}
	if int(a) >= 2*cfg.Buckets || int(b) >= 2*cfg.Buckets {
		t.Error("slot out of range")
	}
}

func TestHistoryCollectorShapes(t *testing.T) {
	cfg := DefaultConfig()
	samples := collect(t, cfg, 1, 120000)
	for _, s := range samples {
		if len(s.Slots) != cfg.HistLen {
			t.Fatalf("sample history length %d", len(s.Slots))
		}
	}
	takens := 0
	for _, s := range samples {
		if s.Taken {
			takens++
		}
	}
	if takens == 0 || takens == len(samples) {
		t.Error("labels are constant; trace generator broken")
	}
}

func TestModelLearnsCorrelation(t *testing.T) {
	cfg := DefaultConfig()
	train := collect(t, cfg, 1, 300000)
	test := collect(t, cfg, 99, 120000) // unseen "input"
	m := NewModel(cfg)
	m.Train(train)
	if !m.Quantized() {
		t.Fatal("model not quantized after training")
	}
	acc := m.Accuracy(test)
	// Noise 0.1 puts the ceiling at 0.9; the helper must recover most of
	// the correlation despite variable positions.
	if acc < 0.8 {
		t.Errorf("helper accuracy on unseen input = %v, want >= 0.8", acc)
	}
}

func TestHelperBeatsTAGEOnH2P(t *testing.T) {
	// The paper's core §V claim: an offline-trained helper beats the
	// online baseline on the specific H2P it was trained for.
	cfg := DefaultConfig()
	train := collect(t, cfg, 1, 300000)
	m := NewModel(cfg)
	m.Train(train)

	// Baseline TAGE accuracy on the H2P in a fresh trace.
	tr := correlatedTrace(123, 150000, 0.1)
	col := core.NewCollector(uint64(tr.Len()))
	core.RunBlocks(tr.BlockStream(0), tage.New(tage.Config8KB()), col)
	tageAcc := col.Totals()[h2pIP].Accuracy()

	// Overlay accuracy on the same trace.
	overlay := NewOverlay(cfg, tage.New(tage.Config8KB()))
	overlay.Attach(h2pIP, m)
	col2 := core.NewCollector(uint64(tr.Len()))
	core.RunBlocks(tr.BlockStream(0), overlay, col2)
	helperAcc := col2.Totals()[h2pIP].Accuracy()

	if overlay.HelperPredictions == 0 {
		t.Fatal("helper never engaged")
	}
	if helperAcc <= tageAcc {
		t.Errorf("helper (%v) did not beat TAGE (%v) on the H2P", helperAcc, tageAcc)
	}
	t.Logf("TAGE %.3f -> helper %.3f on H2P", tageAcc, helperAcc)
}

func TestOverlayLeavesOtherBranchesToBase(t *testing.T) {
	cfg := DefaultConfig()
	overlay := NewOverlay(cfg, bp.NewBimodal(12))
	tr := correlatedTrace(5, 50000, 0.1)
	// No helpers attached: behaves exactly like the base.
	st := core.RunBlocks(tr.BlockStream(0), overlay)
	base := core.RunBlocks(tr.BlockStream(0), bp.NewBimodal(12))
	if st.Mispreds != base.Mispreds {
		t.Errorf("empty overlay diverges from base: %d vs %d", st.Mispreds, base.Mispreds)
	}
	if overlay.HelperPredictions != 0 {
		t.Error("helper predictions counted with no helpers attached")
	}
}

func TestQuantizedWeightsAreTwoBit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 3
	samples := collect(t, cfg, 2, 150000)
	m := NewModel(cfg)
	m.Train(samples)
	if !m.Quantized() {
		t.Fatal("not quantized")
	}
	checkLevels := func(vals []int8) {
		for _, v := range vals {
			if v < -2 || v > 2 {
				t.Fatalf("weight level %d outside 2-bit magnitude range", v)
			}
		}
	}
	for _, row := range m.q1 {
		checkLevels(row)
	}
	checkLevels(m.q2)
	// The dead zone must actually fire: untrained embedding rows (slots
	// that never occurred in this branch's history) quantize to zero.
	zeroRows := 0
	for _, row := range m.q1 {
		all := true
		for _, v := range row {
			if v != 0 {
				all = false
				break
			}
		}
		if all {
			zeroRows++
		}
	}
	if zeroRows == 0 {
		t.Error("no all-zero embedding rows; dead-zone quantization not effective")
	}
}

func TestQuantizationPreservesAccuracy(t *testing.T) {
	cfg := DefaultConfig()
	train := collect(t, cfg, 2, 250000)
	test := collect(t, cfg, 77, 100000)
	m := NewModel(cfg)
	m.Train(train)
	qAcc := m.Accuracy(test)
	floatModel := *m
	floatModel.quantized = false
	fAcc := floatModel.Accuracy(test)
	if qAcc < fAcc-0.08 {
		t.Errorf("quantization costs too much: float %v -> quantized %v", fAcc, qAcc)
	}
}

func TestTrainOnEmptyIsNoop(t *testing.T) {
	m := NewModel(DefaultConfig())
	m.Train(nil)
	if m.Quantized() {
		t.Error("empty training must not quantize")
	}
}

func TestAccuracyEmpty(t *testing.T) {
	m := NewModel(DefaultConfig())
	if m.Accuracy(nil) != 0 {
		t.Error("accuracy of empty sample set should be 0")
	}
}
