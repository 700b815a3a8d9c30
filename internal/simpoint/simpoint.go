// Package simpoint reimplements SimPoint-style phase analysis (Sherwood
// et al., ASPLOS 2002), the methodology the paper uses to verify that its
// traces cover multiple program phases (Table I "Avg # Phases"): collect
// a basic-block vector (BBV) per fixed-length slice, randomly project it
// to a low dimension, cluster with k-means, and select k with a BIC
// criterion.
package simpoint

import (
	"math"

	"branchlab/internal/trace"
	"branchlab/internal/xrand"
)

// DefaultDim is the projected BBV dimensionality (the SimPoint default is
// 15).
const DefaultDim = 15

// BBVCollector builds one projected basic-block vector per slice. It
// implements the core.Observer shape (Inst/Branch methods) so it can ride
// along any measurement run. Branch IPs act as basic-block identifiers:
// each conditional branch terminates a block, so its execution count is
// the block's count.
type BBVCollector struct {
	SliceLen uint64
	Dim      int
	vectors  [][]float64
	cur      []float64
	// end is the first instruction index past the current slice;
	// comparing against it replaces a per-instruction division.
	end uint64
}

// NewBBVCollector returns a collector with the given slice length and
// projected dimension (DefaultDim if dim <= 0).
func NewBBVCollector(sliceLen uint64, dim int) *BBVCollector {
	if sliceLen == 0 {
		panic("simpoint: zero slice length")
	}
	if dim <= 0 {
		dim = DefaultDim
	}
	return &BBVCollector{SliceLen: sliceLen, Dim: dim}
}

// Inst implements the observer contract.
func (c *BBVCollector) Inst(i uint64, inst *trace.Inst) {
	if c.cur == nil || i >= c.end {
		c.flush()
		c.cur = make([]float64, c.Dim)
		c.end = (i/c.SliceLen + 1) * c.SliceLen
	}
	if inst.Kind != trace.KindCondBr {
		return
	}
	// Random projection: each block IP deterministically contributes a
	// +-1 pattern across the projected dimensions.
	h := xrand.Mix64(inst.IP)
	for d := 0; d < c.Dim; d++ {
		if (h>>uint(d))&1 == 1 {
			c.cur[d]++
		} else {
			c.cur[d]--
		}
	}
}

// Branch implements the observer contract.
func (c *BBVCollector) Branch(uint64, *trace.Inst, bool) {}

func (c *BBVCollector) flush() {
	if c.cur == nil {
		return
	}
	// L1-normalize so slices of equal length but different branch density
	// remain comparable.
	total := 0.0
	for _, v := range c.cur {
		total += math.Abs(v)
	}
	if total > 0 {
		for d := range c.cur {
			c.cur[d] /= total
		}
	}
	c.vectors = append(c.vectors, c.cur)
	c.cur = nil
}

// Vectors returns the per-slice projected BBVs collected so far,
// finalizing the in-progress slice.
func (c *BBVCollector) Vectors() [][]float64 {
	c.flush()
	return c.vectors
}

// KMeansResult holds one clustering outcome.
type KMeansResult struct {
	K         int
	Labels    []int
	Centroids [][]float64
	Inertia   float64 // sum of squared distances to assigned centroids
	BIC       float64
}

// KMeans clusters vectors into k groups with deterministic k-means++
// seeding and Lloyd iterations.
func KMeans(vectors [][]float64, k int, seed uint64) KMeansResult {
	n := len(vectors)
	if n == 0 || k <= 0 {
		return KMeansResult{K: 0}
	}
	if k > n {
		k = n
	}
	dim := len(vectors[0])
	rng := xrand.New(seed)

	// k-means++ seeding.
	centroids := make([][]float64, 0, k)
	centroids = append(centroids, append([]float64(nil), vectors[rng.Intn(n)]...))
	dists := make([]float64, n)
	for len(centroids) < k {
		total := 0.0
		for i, v := range vectors {
			best := math.Inf(1)
			for _, c := range centroids {
				if d := sqDist(v, c); d < best {
					best = d
				}
			}
			dists[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with centroids; duplicate one.
			centroids = append(centroids, append([]float64(nil), vectors[rng.Intn(n)]...))
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := n - 1
		for i, d := range dists {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centroids = append(centroids, append([]float64(nil), vectors[pick]...))
	}

	labels := make([]int, n)
	for iter := 0; iter < 100; iter++ {
		changed := false
		for i, v := range vectors {
			best, bestD := 0, math.Inf(1)
			for j, c := range centroids {
				if d := sqDist(v, c); d < bestD {
					best, bestD = j, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				changed = true
			}
		}
		counts := make([]int, k)
		sums := make([][]float64, k)
		for j := range sums {
			sums[j] = make([]float64, dim)
		}
		for i, v := range vectors {
			counts[labels[i]]++
			for d, x := range v {
				sums[labels[i]][d] += x
			}
		}
		for j := range centroids {
			if counts[j] == 0 {
				continue // keep empty centroid in place
			}
			for d := range centroids[j] {
				centroids[j][d] = sums[j][d] / float64(counts[j])
			}
		}
		if !changed {
			break
		}
	}

	inertia := 0.0
	clusterSizes := make([]int, k)
	for i, v := range vectors {
		inertia += sqDist(v, centroids[labels[i]])
		clusterSizes[labels[i]]++
	}
	res := KMeansResult{K: k, Labels: labels, Centroids: centroids, Inertia: inertia}
	res.BIC = bic(clusterSizes, n, dim, inertia)
	return res
}

// bic is the spherical-Gaussian Bayesian information criterion of
// x-means, as used by SimPoint: mixture log-likelihood (including the
// cluster-assignment term Σ nᵢ·log(nᵢ/n), which penalizes gratuitous
// splits) minus a model-complexity penalty.
func bic(clusterSizes []int, n, dim int, inertia float64) float64 {
	k := len(clusterSizes)
	if n <= k {
		return math.Inf(-1)
	}
	variance := inertia / float64(n-k)
	if variance <= 0 {
		variance = 1e-12
	}
	ll := -0.5 * float64(n) * (float64(dim)*math.Log(2*math.Pi*variance) + 1)
	for _, ni := range clusterSizes {
		if ni > 0 {
			ll += float64(ni) * math.Log(float64(ni)/float64(n))
		}
	}
	params := float64(k)*float64(dim) + float64(k)
	return ll - 0.5*params*math.Log(float64(n))
}

// ChooseK runs k-means for k in [1, maxK] and returns the smallest k
// whose BIC reaches 90% of the best score, the SimPoint selection rule.
func ChooseK(vectors [][]float64, maxK int, seed uint64) KMeansResult {
	if len(vectors) == 0 {
		return KMeansResult{}
	}
	if maxK > len(vectors) {
		maxK = len(vectors)
	}
	results := make([]KMeansResult, 0, maxK)
	best := math.Inf(-1)
	for k := 1; k <= maxK; k++ {
		r := KMeans(vectors, k, seed+uint64(k))
		results = append(results, r)
		if r.BIC > best {
			best = r.BIC
		}
	}
	// BIC values are negative; "90% of the best" follows the SimPoint
	// convention of a threshold between the worst and best scores.
	worst := math.Inf(1)
	for _, r := range results {
		if r.BIC < worst {
			worst = r.BIC
		}
	}
	threshold := worst + 0.9*(best-worst)
	for _, r := range results {
		if r.BIC >= threshold {
			return r
		}
	}
	return results[len(results)-1]
}

// Phases counts the distinct phases of a trace: it collects BBVs at the
// given slice length and clusters them. It is the Table I "Avg # Phases"
// instrument.
func Phases(bs trace.BlockStream, sliceLen uint64, maxK int) KMeansResult {
	col := NewBBVCollector(sliceLen, DefaultDim)
	var i uint64
	for blk := bs.NextBlock(); len(blk) > 0; blk = bs.NextBlock() {
		for j := range blk {
			col.Inst(i, &blk[j])
			i++
		}
	}
	return ChooseK(col.Vectors(), maxK, 12345)
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
