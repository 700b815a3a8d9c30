// Package xrand provides small, fast, deterministic pseudo-random number
// generators for workload synthesis and simulation.
//
// The generators here are deliberately independent of math/rand so that
// traces are bit-for-bit reproducible across Go releases: a workload is a
// pure function of its seed.
package xrand

import (
	"errors"
	"math"
)

// ErrNonPositiveRanks is returned by NewZipf when the rank count is not
// positive: a Zipf distribution needs at least one rank to sample.
var ErrNonPositiveRanks = errors.New("xrand: Zipf rank count must be positive")

// ErrNonPositiveExponent is returned by NewZipf when the exponent is not
// positive: s <= 0 inverts or flattens the rank-frequency law and never
// describes the hot-code skew the samplers model.
var ErrNonPositiveExponent = errors.New("xrand: Zipf exponent must be positive")

// SplitMix64 is the splitmix64 generator of Steele, Lea and Flood. It is
// used both as a standalone generator and to seed Xoshiro256.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 hashes x with the splitmix64 finalizer. It is a convenient way to
// derive independent seeds and to hash instruction pointers.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Rand is a xoshiro256** generator: fast, high quality, 256-bit state.
type Rand struct {
	s [4]uint64
}

// New returns a Rand seeded from seed via splitmix64, per the xoshiro
// authors' recommendation.
func New(seed uint64) *Rand {
	sm := NewSplitMix64(seed)
	var r Rand
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return &r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns a uniformly distributed 32-bit value.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		//lint:ignore errcontract Intn mirrors the math/rand API contract, which panics on non-positive n; callers pass literal or validated bounds
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection-free approximation is fine here:
	// the bias for n « 2^64 is far below anything a simulation can observe.
	hi, _ := mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Int63 returns a non-negative 63-bit value.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// NormFloat64 returns a normally distributed value (mean 0, stddev 1) using
// the polar Box-Muller transform.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Zipf samples integers in [0, n) with a Zipf-like rank-frequency
// distribution of exponent s, using inverse-CDF over precomputed weights.
type Zipf struct {
	cum []float64
	r   *Rand
}

// NewZipf builds a Zipf sampler over n ranks with exponent s (s > 0; larger
// s concentrates mass on low ranks). Invalid arguments return a typed
// error (ErrNonPositiveRanks, ErrNonPositiveExponent) rather than
// panicking, so callers deriving n from workload parameters can surface
// a configuration mistake instead of dying mid-synthesis.
func NewZipf(r *Rand, n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, ErrNonPositiveRanks
	}
	if s <= 0 {
		return nil, ErrNonPositiveExponent
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{cum: cum, r: r}, nil
}

// Next returns the next sampled rank in [0, n).
func (z *Zipf) Next() int {
	u := z.r.Float64()
	// Binary search for the first cumulative weight >= u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}
