package cnn

import (
	"bytes"
	"math"
	"testing"

	"branchlab/internal/xrand"
)

// refModel is the trainer the flat-row one replaced, kept as its
// oracle: embeddings as one []float32 per row, dequantized weights
// rebuilt on every refresh.
type refModel struct {
	Cfg       Config
	w1        [][]float32
	w2        []float32
	b         float32
	q1        [][]int8
	q2        []int8
	scale1    []float32
	scale2    float32
	quantized bool
}

func newRefModel(cfg Config) *refModel {
	rng := xrand.New(cfg.Seed)
	m := &refModel{Cfg: cfg}
	m.w1 = make([][]float32, 2*cfg.Buckets)
	for i := range m.w1 {
		m.w1[i] = make([]float32, cfg.Filters)
	}
	m.w2 = make([]float32, cfg.Segments*cfg.Filters)
	for i := range m.w2 {
		m.w2[i] = float32(rng.NormFloat64() * 0.1)
	}
	return m
}

// deployed returns the quantized model as a Model, for WriteTo.
func (m *refModel) deployed() *Model {
	return &Model{Cfg: m.Cfg, b: m.b, q1: m.q1, q2: m.q2,
		scale1: m.scale1, scale2: m.scale2, quantized: m.quantized}
}

func (m *refModel) pooled(w1 [][]float32, slots []uint16, out []float32) {
	for i := range out {
		out[i] = 0
	}
	segLen := (len(slots) + m.Cfg.Segments - 1) / m.Cfg.Segments
	for t, slot := range slots {
		seg := t / segLen
		if seg >= m.Cfg.Segments {
			seg = m.Cfg.Segments - 1
		}
		w := w1[slot]
		base := seg * m.Cfg.Filters
		for f := 0; f < m.Cfg.Filters; f++ {
			out[base+f] += w[f]
		}
	}
}

func (m *refModel) forward(w1 [][]float32, w2 []float32, slots []uint16, raw []float32) float32 {
	m.pooled(w1, slots, raw)
	z := m.b
	for i, r := range raw {
		if r > 0 {
			z += w2[i] * r
		}
	}
	return z
}

func (m *refModel) Train(samples []Sample) {
	if len(samples) == 0 {
		return
	}
	rng := xrand.New(m.Cfg.Seed + 1)
	order := make([]int, len(samples))
	for i := range order {
		order[i] = i
	}
	lr := float32(m.Cfg.LR)
	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		m.epoch(samples, order, rng, lr, false)
		lr *= 0.8
	}
	lr *= 0.3
	qatEpochs := m.Cfg.Epochs/2 + 1
	for epoch := 0; epoch < qatEpochs; epoch++ {
		m.quantize()
		if !m.quantized {
			return
		}
		m.epoch(samples, order, rng, lr, true)
		lr *= 0.8
	}
	m.quantize()
}

func (m *refModel) epoch(samples []Sample, order []int, rng *xrand.Rand, lr float32, ste bool) {
	const steRefresh = 256
	feat := make([]float32, m.Cfg.Segments*m.Cfg.Filters)
	fw1, fw2 := m.w1, m.w2
	if ste {
		fw1 = refDequant2D(m.q1, m.scale1)
		fw2 = refDequant1D(m.q2, m.scale2)
	}
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for step, idx := range order {
		if ste && step > 0 && step%steRefresh == 0 {
			m.quantize()
			fw1 = refDequant2D(m.q1, m.scale1)
			fw2 = refDequant1D(m.q2, m.scale2)
		}
		s := samples[idx]
		z := m.forward(fw1, fw2, s.Slots, feat)
		p := sigmoid(z)
		y := float32(0)
		if s.Taken {
			y = 1
		}
		g := p - y
		m.b -= lr * g
		segLen := (len(s.Slots) + m.Cfg.Segments - 1) / m.Cfg.Segments
		for i, r := range feat {
			if r >= 0 {
				m.w1grad(s.Slots, segLen, i, lr*g*fw2[i])
			}
			if r > 0 {
				m.w2[i] -= lr * g * r
			}
		}
	}
}

func refDequant2D(q [][]int8, scales []float32) [][]float32 {
	out := make([][]float32, len(q))
	for i, row := range q {
		out[i] = make([]float32, len(row))
		for j, v := range row {
			out[i][j] = float32(v) * scales[i]
		}
	}
	return out
}

func refDequant1D(q []int8, scale float32) []float32 {
	out := make([]float32, len(q))
	for i, v := range q {
		out[i] = float32(v) * scale
	}
	return out
}

func (m *refModel) w1grad(slots []uint16, segLen, i int, delta float32) {
	seg := i / m.Cfg.Filters
	f := i % m.Cfg.Filters
	lo := seg * segLen
	hi := lo + segLen
	if hi > len(slots) {
		hi = len(slots)
	}
	for t := lo; t < hi; t++ {
		m.w1[slots[t]][f] -= delta
	}
}

func (m *refModel) quantize() {
	scaleOf := func(rows ...[]float32) float32 {
		var sum float64
		var n int
		for _, row := range rows {
			for _, w := range row {
				if a := math.Abs(float64(w)); a > 1e-6 {
					sum += a
					n++
				}
			}
		}
		if n == 0 {
			return 0
		}
		return float32(sum / float64(n))
	}
	quant := func(w, scale float32) int8 {
		if scale == 0 {
			return 0
		}
		v := w / scale
		switch {
		case v <= -1.5:
			return -2
		case v <= -0.5:
			return -1
		case v < 0.5:
			return 0
		case v < 1.5:
			return 1
		default:
			return 2
		}
	}
	m.scale2 = scaleOf(m.w2)
	if m.scale2 == 0 {
		return
	}
	m.scale1 = make([]float32, len(m.w1))
	m.q1 = make([][]int8, len(m.w1))
	for i, row := range m.w1 {
		s := scaleOf(row)
		m.scale1[i] = s
		m.q1[i] = make([]int8, len(row))
		for j, w := range row {
			m.q1[i][j] = quant(w, s)
		}
	}
	m.q2 = make([]int8, len(m.w2))
	for i, w := range m.w2 {
		m.q2[i] = quant(w, m.scale2)
	}
	m.quantized = true
}

// TestTrainMatchesRowOracle trains the flat-row model and the oracle on
// the same correlatedTrace samples and requires bit-identical float
// weights and byte-identical serialized models. The configurations
// cover a history the segments divide evenly, one they do not (60/8:
// the last segment is clamped short) and one leaving trailing segments
// empty (10/8).
func TestTrainMatchesRowOracle(t *testing.T) {
	for _, geom := range []struct{ hist, segs int }{{64, 8}, {60, 8}, {10, 8}} {
		cfg := DefaultConfig()
		cfg.HistLen, cfg.Segments, cfg.Epochs = geom.hist, geom.segs, 3
		samples := collect(t, cfg, 2, 40_000)
		m, ref := NewModel(cfg), newRefModel(cfg)
		m.Train(samples)
		ref.Train(samples)
		for row, w := range ref.w1 {
			for f, x := range w {
				if got := m.w1[row*cfg.Filters+f]; math.Float32bits(got) != math.Float32bits(x) {
					t.Fatalf("%d/%d: w1[%d][%d] = %v, oracle %v", geom.hist, geom.segs, row, f, got, x)
				}
			}
		}
		for i, x := range ref.w2 {
			if math.Float32bits(m.w2[i]) != math.Float32bits(x) {
				t.Fatalf("%d/%d: w2[%d] = %v, oracle %v", geom.hist, geom.segs, i, m.w2[i], x)
			}
		}
		var got, want bytes.Buffer
		if _, err := m.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.deployed().WriteTo(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d/%d: serialized model differs from the oracle's", geom.hist, geom.segs)
		}
	}
}

// cnnSink keeps benchmarked models live.
var cnnSink *Model

// BenchmarkCNNTrain times training one helper model at the experiment
// configuration on a fixed correlatedTrace sample set.
func BenchmarkCNNTrain(b *testing.B) {
	cfg := DefaultConfig()
	samples := collect(b, cfg, 2, 150_000)
	for b.Loop() {
		cnnSink = NewModel(cfg)
		cnnSink.Train(samples)
	}
}
