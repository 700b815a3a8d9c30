// Package stats provides the small statistics toolkit used by the
// measurement framework: scalar aggregates, quantiles, explicit-bin
// histograms, reservoir sampling and binned scatter summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}

// GeoMean returns the geometric mean of xs; all values must be positive.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// Median returns the median of xs without modifying it.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation, without modifying xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MedianUint64 returns the median of xs (as float64 to allow midpoints).
func MedianUint64(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]uint64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted)
	if n%2 == 1 {
		return float64(sorted[n/2])
	}
	return (float64(sorted[n/2-1]) + float64(sorted[n/2])) / 2
}

// Histogram counts values into explicit, contiguous bins. Bin i covers
// [Edges[i], Edges[i+1]); the final bin is closed on the right.
type Histogram struct {
	Edges  []float64 // len = len(Counts)+1, strictly increasing
	Counts []uint64
	Total  uint64
	Under  uint64 // values below Edges[0]
	Over   uint64 // values above the last edge
}

// NewHistogram builds a histogram over the given edges. It panics if fewer
// than two edges are supplied or if they are not strictly increasing.
func NewHistogram(edges ...float64) *Histogram {
	if len(edges) < 2 {
		panic("stats: histogram needs at least two edges")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			panic("stats: histogram edges must be strictly increasing")
		}
	}
	return &Histogram{Edges: edges, Counts: make([]uint64, len(edges)-1)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) { h.AddN(x, 1) }

// AddN records n identical observations.
func (h *Histogram) AddN(x float64, n uint64) {
	h.Total += n
	if x < h.Edges[0] {
		h.Under += n
		return
	}
	last := len(h.Edges) - 1
	if x > h.Edges[last] {
		h.Over += n
		return
	}
	if x == h.Edges[last] {
		h.Counts[last-1] += n
		return
	}
	idx := sort.SearchFloat64s(h.Edges, x)
	// SearchFloat64s returns the first edge >= x; the bin is the one to its
	// left unless x is exactly on an edge.
	if idx == len(h.Edges) || h.Edges[idx] != x {
		idx--
	}
	h.Counts[idx] += n
}

// Fraction returns each bin count divided by the total (including
// under/overflow) as parallel slices of labels and values.
func (h *Histogram) Fraction() []float64 {
	out := make([]float64, len(h.Counts))
	if h.Total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.Total)
	}
	return out
}

// BinLabel renders bin i's range compactly (e.g. "100-1K").
func (h *Histogram) BinLabel(i int) string {
	return fmt.Sprintf("%s-%s", compact(h.Edges[i]), compact(h.Edges[i+1]))
}

func compact(v float64) string {
	abs := math.Abs(v)
	switch {
	case abs >= 1e6 && math.Mod(v, 1e6) == 0:
		return fmt.Sprintf("%gM", v/1e6)
	case abs >= 1e3 && math.Mod(v, 1e3) == 0:
		return fmt.Sprintf("%gK", v/1e3)
	case abs < 1 && abs > 0:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%g", v)
	}
}

// Reservoir keeps a uniform random sample of up to K values from a stream
// of unknown length (algorithm R). It is used where the paper computes
// per-branch medians over interval streams that may be arbitrarily long.
type Reservoir struct {
	K      int
	Sample []uint64
	N      uint64 // observations so far
	rng    uint64 // splitmix64 state; deterministic per tracker
}

// NewReservoir returns a reservoir of capacity k seeded deterministically.
func NewReservoir(k int, seed uint64) *Reservoir {
	return &Reservoir{K: k, Sample: make([]uint64, 0, k), rng: seed*2 + 1}
}

func (r *Reservoir) nextRand() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add records one observation.
func (r *Reservoir) Add(v uint64) {
	r.N++
	if len(r.Sample) < r.K {
		r.Sample = append(r.Sample, v)
		return
	}
	j := r.nextRand() % r.N
	if j < uint64(r.K) {
		r.Sample[j] = v
	}
}

// Median returns the median of the sampled values (exact if fewer than K
// observations were made).
func (r *Reservoir) Median() float64 { return MedianUint64(r.Sample) }

// BinnedStdDev groups (x, y) points into fixed-width x bins and reports the
// per-bin standard deviation of y, reproducing the methodology of Fig 4b.
type BinnedStdDev struct {
	Width float64
	bins  map[int][]float64
}

// NewBinnedStdDev returns an accumulator with the given bin width.
func NewBinnedStdDev(width float64) *BinnedStdDev {
	return &BinnedStdDev{Width: width, bins: make(map[int][]float64)}
}

// Add records one point.
func (b *BinnedStdDev) Add(x, y float64) {
	i := int(x / b.Width)
	b.bins[i] = append(b.bins[i], y)
}

// Bin holds one populated bin of a BinnedStdDev.
type Bin struct {
	Lo, Hi float64
	N      int
	Mean   float64
	StdDev float64
}

// Bins returns populated bins in increasing x order.
func (b *BinnedStdDev) Bins() []Bin {
	idxs := make([]int, 0, len(b.bins))
	for i := range b.bins {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	out := make([]Bin, 0, len(idxs))
	for _, i := range idxs {
		ys := b.bins[i]
		out = append(out, Bin{
			Lo:     float64(i) * b.Width,
			Hi:     float64(i+1) * b.Width,
			N:      len(ys),
			Mean:   Mean(ys),
			StdDev: StdDev(ys),
		})
	}
	return out
}
