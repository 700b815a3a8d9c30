package cache

import "testing"

func small() *Cache {
	// 4KB, 4-way, 64B blocks = 16 sets.
	return New(Config{Name: "T", SizeKB: 4, Ways: 4, BlockBits: 6, HitLat: 2}, nil, 100)
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if lat := c.Access(0x1000); lat != 102 {
		t.Errorf("cold miss latency = %d, want 102", lat)
	}
	if lat := c.Access(0x1000); lat != 2 {
		t.Errorf("hit latency = %d, want 2", lat)
	}
	if lat := c.Access(0x1004); lat != 2 {
		t.Errorf("same-block hit latency = %d, want 2", lat)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 16 sets, 4 ways
	// Five blocks mapping to the same set (stride = sets*blockSize = 1024).
	addrs := []uint64{0, 1024, 2048, 3072, 4096}
	for _, a := range addrs {
		c.Access(a)
	}
	// addr 0 was LRU and must have been evicted.
	if lat := c.Access(0); lat == 2 {
		t.Error("LRU block still resident after overflow")
	}
	// addr 4096 must still hit.
	if lat := c.Access(4096); lat != 2 {
		t.Error("most recent block evicted")
	}
}

func TestLRUTouchedBlockSurvives(t *testing.T) {
	c := small()
	c.Access(0)
	c.Access(1024)
	c.Access(2048)
	c.Access(3072)
	c.Access(0) // touch: now 1024 is LRU
	c.Access(4096)
	if lat := c.Access(0); lat != 2 {
		t.Error("recently touched block was evicted")
	}
	if lat := c.Access(1024); lat == 2 {
		t.Error("true LRU block was not evicted")
	}
}

func TestHierarchyChainsLatency(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	lat := h.L1D.Access(0x8000)
	// Cold miss traverses L1D(4) + L2(8) + LLC(28) + mem(180).
	if lat != 4+8+28+180 {
		t.Errorf("cold chain latency = %d", lat)
	}
	if lat = h.L1D.Access(0x8000); lat != 4 {
		t.Errorf("warm L1D latency = %d", lat)
	}
	// The same line through the other L1 (instruction side) misses L1I
	// but hits the shared L2.
	h.L1I.Access(0x8000)
	if h.L2.Stats().Hits == 0 {
		t.Error("expected an L2 hit via the shared level")
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
}

func TestNewPanicsOnBadWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for Ways=0")
		}
	}()
	New(Config{SizeKB: 4, Ways: 0, BlockBits: 6}, nil, 0)
}

func TestTinyCacheStillWorks(t *testing.T) {
	// Degenerate: capacity smaller than ways*block rounds to one set.
	c := New(Config{SizeKB: 1, Ways: 32, BlockBits: 6, HitLat: 1}, nil, 10)
	for i := uint64(0); i < 64; i++ {
		c.Access(i * 64)
	}
	if c.Stats().Misses == 0 {
		t.Error("expected misses in tiny cache")
	}
}

func BenchmarkAccess(b *testing.B) {
	h := NewHierarchy(DefaultHierarchy())
	for i := 0; i < b.N; i++ {
		h.L1D.Access(uint64(i*64) & 0xFFFFF)
	}
}

func TestLatenciesCoverEveryAccess(t *testing.T) {
	h := NewHierarchy(DefaultHierarchy())
	want := []uint64{4, 4 + 8, 4 + 8 + 28, 4 + 8 + 28 + 180}
	got := h.L1D.Latencies()
	if len(got) != len(want) {
		t.Fatalf("L1D latencies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("L1D latencies = %v, want %v", got, want)
		}
	}
	// Every latency an access reports is one of the listed levels.
	lats := h.L1I.Latencies()
	for i := uint64(0); i < 20000; i++ {
		lat := h.L1I.Access((i * 7919 * 64) & 0x3FFFFFF)
		found := false
		for _, l := range lats {
			found = found || l == lat
		}
		if !found {
			t.Fatalf("access latency %d not in %v", lat, lats)
		}
	}
}
