// Package cnn implements the offline-trained convolutional helper
// predictor the paper proposes in §V-C and develops in its companion
// paper (Tarsa et al., "Improving Branch Prediction By Modeling Global
// History with Convolutional Neural Networks", AIDArc 2019).
//
// Architecture, following the companion paper's deployable variant:
//
//   - input: the last HistLen (IP, direction) pairs, each one-hot encoded
//     by hashing into Buckets*2 slots (direction folded into the slot);
//   - a width-1 convolution (an embedding) mapping each slot to Filters
//     features;
//   - sum pooling within Segments contiguous history segments — the step
//     that buys robustness to the history-position variation that defeats
//     TAGE's exact matching (paper §IV-A, Fig 6);
//   - a fully-connected sigmoid output over the pooled features.
//
// Training runs offline in float32 over traces from multiple application
// inputs; inference quantizes weights to 2-bit magnitudes as in the
// companion paper so the online helper is hardware-plausible.
package cnn

import (
	"math"

	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// Config sizes a helper model.
type Config struct {
	HistLen  int // history length in conditional branches
	Buckets  int // hashed IP buckets (input dim = 2*Buckets)
	Filters  int
	Segments int
	Epochs   int
	LR       float64
	Seed     uint64
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{HistLen: 64, Buckets: 128, Filters: 16, Segments: 8,
		Epochs: 8, LR: 0.05, Seed: 7}
}

// Sample is one training/evaluation example for a single target branch: a
// snapshot of encoded history and the resolved direction.
type Sample struct {
	Slots []uint16 // len = HistLen, newest last
	Taken bool
}

// Encode hashes an (ip, direction) pair into an input slot.
func Encode(cfg Config, ip uint64, taken bool) uint16 {
	h := xrand.Mix64(ip) % uint64(cfg.Buckets)
	slot := uint16(h) * 2
	if taken {
		slot++
	}
	return slot
}

// HistoryCollector gathers samples for one target branch from a
// measurement run. It implements the core.Observer contract.
type HistoryCollector struct {
	Cfg     Config
	Target  uint64
	Samples []Sample

	hist []uint16
}

// NewHistoryCollector returns a collector for target.
func NewHistoryCollector(cfg Config, target uint64) *HistoryCollector {
	return &HistoryCollector{Cfg: cfg, Target: target}
}

// Inst implements the observer contract.
func (h *HistoryCollector) Inst(_ uint64, inst *trace.Inst) {
	if inst.Kind != trace.KindCondBr {
		return
	}
	if inst.IP == h.Target && len(h.hist) >= h.Cfg.HistLen {
		slots := make([]uint16, h.Cfg.HistLen)
		copy(slots, h.hist[len(h.hist)-h.Cfg.HistLen:])
		h.Samples = append(h.Samples, Sample{Slots: slots, Taken: inst.Taken})
	}
	h.hist = append(h.hist, Encode(h.Cfg, inst.IP, inst.Taken))
	if len(h.hist) > 4*h.Cfg.HistLen {
		h.hist = h.hist[len(h.hist)-h.Cfg.HistLen:]
	}
}

// Branch implements the observer contract.
func (h *HistoryCollector) Branch(uint64, *trace.Inst, bool) {}

// Model is a trained helper predictor for one static branch.
type Model struct {
	Cfg Config
	// Float weights (training).
	w1 []float32 // [2*Buckets][Filters], row-major
	w2 []float32 // [Segments*Filters]
	b  float32
	// Quantized weights (deployment): 2-bit magnitudes with per-row
	// (embedding) and per-tensor (output) scale factors, the
	// grouped-scaling standard for low-precision inference.
	q1        [][]int8
	q2        []int8
	scale1    []float32 // per-row scale for q1
	scale2    float32   // per-tensor scale for q2
	quantized bool
}

// NewModel returns an untrained model with small random weights.
func NewModel(cfg Config) *Model {
	rng := xrand.New(cfg.Seed)
	m := &Model{Cfg: cfg}
	// Embeddings start at zero so that slots never seen during training
	// contribute nothing at inference (and quantize to the dead zone);
	// the random output layer breaks filter symmetry, and the ReLU
	// subgradient at zero lets embedding gradients flow from the start.
	m.w1 = make([]float32, 2*cfg.Buckets*cfg.Filters)
	m.w2 = make([]float32, cfg.Segments*cfg.Filters)
	for i := range m.w2 {
		m.w2[i] = float32(rng.NormFloat64() * 0.1)
	}
	return m
}

// segment returns the history slots [lo, hi) pooled into segment seg:
// segLen-slot runs, the last one clamped to the history's end.
func segment(seg, segLen, n int) (lo, hi int) {
	lo = min(seg*segLen, n)
	return lo, min(lo+segLen, n)
}

// pooled computes the raw (pre-ReLU) segment-pooled feature vector for
// one sample under the given embedding weights (row-major, as w1).
func (m *Model) pooled(w1 []float32, slots []uint16, out []float32) {
	nf := m.Cfg.Filters
	segLen := (len(slots) + m.Cfg.Segments - 1) / m.Cfg.Segments
	for seg := 0; seg < m.Cfg.Segments; seg++ {
		o := out[seg*nf : (seg+1)*nf]
		clear(o)
		lo, hi := segment(seg, segLen, len(slots))
		ss := slots[lo:hi]
		// Four rows per pass: o[f] + a[f] + b[f] + c[f] + d[f] adds
		// left to right, the order of four single-row passes, with one
		// load and store of o[f] instead of four.
		for ; len(ss) >= 4; ss = ss[4:] {
			a := w1[int(ss[0])*nf:][:len(o)]
			b := w1[int(ss[1])*nf:][:len(o)]
			c := w1[int(ss[2])*nf:][:len(o)]
			d := w1[int(ss[3])*nf:][:len(o)]
			for f := range o {
				o[f] = o[f] + a[f] + b[f] + c[f] + d[f]
			}
		}
		for _, slot := range ss {
			w := w1[int(slot)*nf:][:len(o)]
			for f, x := range w {
				o[f] += x
			}
		}
	}
}

// forward returns the pre-sigmoid logit under the given weights, filling
// raw with the pre-ReLU pooled features.
func (m *Model) forward(w1, w2 []float32, slots []uint16, raw []float32) float32 {
	m.pooled(w1, slots, raw)
	z := m.b
	for i, r := range raw {
		if r > 0 {
			z += w2[i] * r
		}
	}
	return z
}

// Train fits the model to the samples with SGD on binary cross-entropy,
// then runs quantization-aware epochs: the forward pass uses the
// quantized weights while gradients update the float shadow weights (the
// straight-through estimator of the BNN line of work the companion paper
// builds on). Call with samples aggregated over multiple application
// inputs for the generalization the paper argues for (§V-B).
func (m *Model) Train(samples []Sample) {
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
	// Quantization-aware refinement at a damped rate: large steps make
	// weights oscillate across the coarse quantization boundaries.
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

// epoch runs one SGD pass. With ste set, the forward pass sees the
// dequantized weights (refreshed every steRefresh samples so the forward
// function tracks the drifting float shadows) while updates flow to the
// float weights — the straight-through estimator.
//
// Each weight receives its updates in a fixed order (by sample, then
// feature, then history slot), so training is bit-reproducible.
func (m *Model) epoch(samples []Sample, order []int, rng *xrand.Rand, lr float32, ste bool) {
	const steRefresh = 256
	feat := make([]float32, m.Cfg.Segments*m.Cfg.Filters)
	fw1, fw2 := m.w1, m.w2
	if ste {
		fw1 = make([]float32, len(m.w1))
		fw2 = make([]float32, len(m.w2))
		m.dequant(fw1, fw2)
	}
	// Fisher-Yates shuffle for SGD.
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for step, idx := range order {
		if ste && step > 0 && step%steRefresh == 0 {
			m.quantize()
			m.dequant(fw1, fw2)
		}
		s := samples[idx]
		z := m.forward(fw1, fw2, s.Slots, feat)
		p := sigmoid(z)
		y := float32(0)
		if s.Taken {
			y = 1
		}
		g := p - y // dL/dz
		m.b -= lr * g
		segLen := (len(s.Slots) + m.Cfg.Segments - 1) / m.Cfg.Segments
		for i, r := range feat {
			// ReLU subgradient of 1 at exactly zero lets zero-initialized
			// embeddings start learning.
			if r >= 0 {
				m.w1grad(s.Slots, segLen, i, lr*g*fw2[i])
			}
			if r > 0 {
				m.w2[i] -= lr * g * r
			}
		}
	}
}

// dequant fills w1 (row-major, as Model.w1) and w2 with the float
// values of the quantized weights.
func (m *Model) dequant(w1, w2 []float32) {
	nf := m.Cfg.Filters
	for i, row := range m.q1 {
		out := w1[i*nf:][:len(row)]
		for j, v := range row {
			out[j] = float32(v) * m.scale1[i]
		}
	}
	for i, v := range m.q2 {
		w2[i] = float32(v) * m.scale2
	}
}

// w1grad applies the embedding gradient for pooled feature i.
func (m *Model) w1grad(slots []uint16, segLen, i int, delta float32) {
	nf := m.Cfg.Filters
	lo, hi := segment(i/nf, segLen, len(slots))
	col := m.w1[i%nf:]
	for _, slot := range slots[lo:hi] {
		col[int(slot)*nf] -= delta
	}
}

// quantize snaps each weight tensor to sign + 2-bit magnitude with a
// dead zone: levels {-2,-1,0,+1,+2}·scale, scale chosen per tensor. The
// dead zone is essential — most embedding rows are never trained (their
// input slot never fires for this branch) and must quantize to exactly
// zero rather than inject ±1 noise into every lookup.
func (m *Model) quantize() {
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
	nf := m.Cfg.Filters
	rows := len(m.w1) / nf
	m.scale1 = make([]float32, rows)
	m.q1 = make([][]int8, rows)
	for i := range rows {
		row := m.w1[i*nf : (i+1)*nf]
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

// Predict returns the predicted direction for a history snapshot using
// the quantized weights when available (integer dot products, as deployed
// on a BPU), falling back to float weights before quantization.
func (m *Model) Predict(slots []uint16) bool {
	if !m.quantized {
		feat := make([]float32, m.Cfg.Segments*m.Cfg.Filters)
		return m.forward(m.w1, m.w2, slots, feat) >= 0
	}
	segLen := (len(slots) + m.Cfg.Segments - 1) / m.Cfg.Segments
	feat := make([]float32, m.Cfg.Segments*m.Cfg.Filters)
	for t, slot := range slots {
		seg := t / segLen
		if seg >= m.Cfg.Segments {
			seg = m.Cfg.Segments - 1
		}
		w := m.q1[slot]
		s := m.scale1[slot]
		if s == 0 {
			continue
		}
		base := seg * m.Cfg.Filters
		for f := range w {
			feat[base+f] += float32(w[f]) * s
		}
	}
	var z float64
	for i, f := range feat {
		if f > 0 { // ReLU
			z += float64(f) * float64(m.q2[i])
		}
	}
	return z*float64(m.scale2)+float64(m.b) >= 0
}

// Accuracy evaluates the model on samples.
func (m *Model) Accuracy(samples []Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	correct := 0
	for _, s := range samples {
		if m.Predict(s.Slots) == s.Taken {
			correct++
		}
	}
	return float64(correct) / float64(len(samples))
}

// Quantized reports whether the model carries 2-bit inference weights.
func (m *Model) Quantized() bool { return m.quantized }

func sigmoid(z float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(z))))
}
