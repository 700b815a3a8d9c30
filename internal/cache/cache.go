// Package cache models a set-associative cache hierarchy with LRU
// replacement and fixed per-level latencies, the memory substrate of the
// pipeline timing model. The paper's ChampSim runs include a full cache
// hierarchy; IPC numbers are meaningless without load latency variance,
// so the reproduction models one too.
package cache

import "fmt"

// Config sizes one cache level.
type Config struct {
	Name      string
	SizeKB    int // total capacity
	Ways      int // associativity
	BlockBits uint
	HitLat    uint64 // access latency on hit, cycles
}

// Stats accumulates per-level access counts.
type Stats struct {
	Hits, Misses uint64
}

// MissRate returns misses / accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// Cache is one level of a hierarchy. A nil lower level means misses go to
// memory at memLat.
type Cache struct {
	cfg  Config
	sets int
	tags []uint64
	// use holds LRU timestamps; 0 means the way is invalid (the clock
	// starts at 1), which folds the validity check into the timestamp
	// load on the per-instruction L1 lookup path.
	use    []uint64
	clock  uint64
	lower  *Cache
	memLat uint64
	stats  Stats
}

// New builds a cache level; lower may be nil, in which case misses cost
// memLat beyond the hit latency chain.
func New(cfg Config, lower *Cache, memLat uint64) *Cache {
	blockBytes := 1 << cfg.BlockBits
	blocks := cfg.SizeKB * 1024 / blockBytes
	if cfg.Ways <= 0 {
		panic("cache: non-positive associativity")
	}
	sets := blocks / cfg.Ways
	if sets == 0 {
		sets = 1
	}
	// Round sets down to a power of two for cheap indexing.
	p := 1
	for p*2 <= sets {
		p *= 2
	}
	sets = p
	n := sets * cfg.Ways
	return &Cache{
		cfg:    cfg,
		sets:   sets,
		tags:   make([]uint64, n),
		use:    make([]uint64, n),
		lower:  lower,
		memLat: memLat,
	}
}

// Stats returns the access statistics for this level.
func (c *Cache) Stats() Stats { return c.stats }

// Name returns the configured level name.
func (c *Cache) Name() string { return c.cfg.Name }

// Latencies returns the latency Access reports when an access hits at
// each level of the chain below and including c, then when it goes to
// memory: element i is the sum of the first i+1 levels' hit latencies,
// plus the memory latency in the last element. Every value Access
// returns is one of these.
func (c *Cache) Latencies() []uint64 {
	var lats []uint64
	var sum uint64
	for l := c; ; l = l.lower {
		sum += l.cfg.HitLat
		lats = append(lats, sum)
		if l.lower == nil {
			return append(lats, sum+l.memLat)
		}
	}
}

// Access looks up addr, filling on miss, and returns the total latency of
// the access including lower levels.
func (c *Cache) Access(addr uint64) uint64 {
	c.clock++
	block := addr >> c.cfg.BlockBits
	set := int(block & uint64(c.sets-1))
	base := set * c.cfg.Ways
	// Slicing the set once elides per-way bounds checks in the probe
	// loop, the hottest lines of the timing model.
	tags := c.tags[base : base+c.cfg.Ways]
	use := c.use[base : base+c.cfg.Ways]
	for w, tag := range tags {
		if tag == block && use[w] != 0 {
			use[w] = c.clock
			c.stats.Hits++
			return c.cfg.HitLat
		}
	}
	c.stats.Misses++
	lat := c.cfg.HitLat
	if c.lower != nil {
		lat += c.lower.Access(addr)
	} else {
		lat += c.memLat
	}
	// Fill, evicting the LRU way; an invalid way (use 0) always loses
	// the min-scan to any valid way, and ties keep the lowest index, so
	// the victim is the first invalid way when one exists — the same
	// choice the explicit valid-bit scan made.
	victim := 0
	for w := 1; w < len(use); w++ {
		if use[w] < use[victim] {
			victim = w
		}
	}
	tags[victim] = block
	use[victim] = c.clock
	return lat
}

// Hierarchy is a Skylake-like three-level hierarchy with split L1.
type Hierarchy struct {
	L1I, L1D, L2, LLC *Cache
}

// HierarchyConfig parameterizes NewHierarchy.
type HierarchyConfig struct {
	L1IKB, L1DKB, L2KB, LLCKB int
	MemLat                    uint64
}

// DefaultHierarchy returns Skylake-like sizes: 32KB L1I/L1D, 256KB L2,
// 8MB LLC, 180-cycle memory.
func DefaultHierarchy() HierarchyConfig {
	return HierarchyConfig{L1IKB: 32, L1DKB: 32, L2KB: 256, LLCKB: 8192, MemLat: 180}
}

// NewHierarchy builds the three-level hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	llc := New(Config{Name: "LLC", SizeKB: cfg.LLCKB, Ways: 16, BlockBits: 6, HitLat: 28}, nil, cfg.MemLat)
	l2 := New(Config{Name: "L2", SizeKB: cfg.L2KB, Ways: 8, BlockBits: 6, HitLat: 8}, llc, 0)
	l1i := New(Config{Name: "L1I", SizeKB: cfg.L1IKB, Ways: 8, BlockBits: 6, HitLat: 0}, l2, 0)
	l1d := New(Config{Name: "L1D", SizeKB: cfg.L1DKB, Ways: 8, BlockBits: 6, HitLat: 4}, l2, 0)
	return &Hierarchy{L1I: l1i, L1D: l1d, L2: l2, LLC: llc}
}

// String summarizes hit rates for debugging reports.
func (h *Hierarchy) String() string {
	return fmt.Sprintf("L1I %.3f | L1D %.3f | L2 %.3f | LLC %.3f miss",
		h.L1I.Stats().MissRate(), h.L1D.Stats().MissRate(),
		h.L2.Stats().MissRate(), h.LLC.Stats().MissRate())
}
