package bp

import (
	"math"
	"testing"

	"branchlab/internal/xrand"
)

// bimodalStationaryMiss is the long-run miss rate of one 2-bit
// saturating counter (states -2..1, predict taken iff >= 0) under an
// i.i.d. Bernoulli(p) branch. The counter is a birth-death chain:
// taken moves it up one state (saturating at 1) with probability p,
// not-taken moves it down (saturating at -2) with probability q = 1-p.
// Detailed balance gives π_{k+1}/π_k = p/q, so π_k ∝ (p/q)^(k+2). In a
// taken-predicting state (k >= 0) the counter misses with probability
// q, in a not-taken-predicting one (k < 0) with probability p.
func bimodalStationaryMiss(p float64) float64 {
	q := 1 - p
	var pi [4]float64 // pi[k+2] for k = -2..1
	sum := 0.0
	for i := range pi {
		pi[i] = math.Pow(p/q, float64(i))
		sum += pi[i]
	}
	miss := 0.0
	for i, w := range pi {
		if i >= 2 {
			miss += w / sum * q
		} else {
			miss += w / sum * p
		}
	}
	return miss
}

// TestBimodalMatchesStationaryChain checks bp.Bimodal against ground
// truth that owes nothing to its implementation: the closed-form
// stationary miss rate of the saturating-counter Markov chain. Misses
// of successive branches are correlated through the counter state, so
// the bound uses batch means: 100 batches of 5,000 branches, each batch
// far longer than the 4-state chain's mixing time, so the batch miss
// rates are close to independent and their spread estimates the
// standard error of the overall rate. The measured rate must lie within
// 4 standard errors of the chain's rate.
func TestBimodalMatchesStationaryChain(t *testing.T) {
	const (
		warm    = 1_000
		batches = 100
		perB    = 5_000
	)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		b := NewBimodal(4)
		rng := xrand.New(2024)
		step := func() bool {
			taken := rng.Bool(p)
			pred := b.Predict(0x400)
			b.Train(0x400, 0x800, taken, pred)
			return pred != taken
		}
		for i := 0; i < warm; i++ {
			step()
		}
		var means [batches]float64
		total := 0.0
		for k := range means {
			miss := 0
			for i := 0; i < perB; i++ {
				if step() {
					miss++
				}
			}
			means[k] = float64(miss) / perB
			total += means[k]
		}
		got := total / batches
		ss := 0.0
		for _, m := range means {
			ss += (m - got) * (m - got)
		}
		se := math.Sqrt(ss / (batches - 1) / batches)
		want := bimodalStationaryMiss(p)
		if d := math.Abs(got - want); d > 4*se {
			t.Errorf("p=%.1f: miss rate %.5f, chain predicts %.5f (|diff| %.5f > 4 SE = %.5f)",
				p, got, want, d, 4*se)
		}
		t.Logf("p=%.1f: miss rate %.5f, chain %.5f, SE %.5f", p, got, want, se)
	}
}
