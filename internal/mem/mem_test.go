package mem

import (
	"testing"
	"testing/quick"
)

func testGeom(size, ways, block int) CacheGeometry {
	return CacheGeometry{SizeBytes: size, Ways: ways, BlockBytes: block, HitLatency: 1}
}

func TestCacheHitAfterMiss(t *testing.T) {
	c := NewCache("t", testGeom(1024, 2, 64), &FixedLatency{Latency: 10})
	if done := c.Access(0x100, false, 0); done != 11 {
		t.Errorf("first access done at %d, want 11 (1 hit latency + 10 lower)", done)
	}
	if done := c.Access(0x100, false, 20); done != 21 {
		t.Errorf("second access done at %d, want 21 (hit)", done)
	}
	if c.Misses() != 1 || c.Accesses() != 2 {
		t.Errorf("misses=%d accesses=%d, want 1,2", c.Misses(), c.Accesses())
	}
}

func TestCacheSameBlockHits(t *testing.T) {
	c := NewCache("t", testGeom(1024, 2, 64), &FixedLatency{Latency: 10})
	c.Access(0x100, false, 0)
	if done := c.Access(0x13c, false, 5); done != 6 {
		t.Errorf("same-block access done at %d, want 6", done)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// 2 ways, 2 sets of 64B blocks => size 256B. Three blocks mapping to
	// set 0: 0x000, 0x100, 0x200.
	c := NewCache("t", testGeom(256, 2, 64), &FixedLatency{Latency: 10})
	c.Access(0x000, false, 0)
	c.Access(0x100, false, 0)
	c.Access(0x000, false, 1) // touch 0x000, making 0x100 LRU
	c.Access(0x200, false, 2) // evicts 0x100
	if !c.Probe(0x000) {
		t.Error("0x000 should still be resident")
	}
	if c.Probe(0x100) {
		t.Error("0x100 should have been evicted")
	}
	if !c.Probe(0x200) {
		t.Error("0x200 should be resident")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := NewCache("t", testGeom(256, 2, 64), &FixedLatency{Latency: 10})
	c.Access(0x000, false, 0)
	c.Access(0x100, false, 0)
	for i := 0; i < 10; i++ {
		c.Probe(0x100) // must not refresh LRU
	}
	c.Access(0x000, false, 1)
	c.Access(0x200, false, 2)
	if c.Probe(0x100) {
		t.Error("probe refreshed LRU state")
	}
	if got := c.Accesses(); got != 4 {
		t.Errorf("probe counted as access: %d", got)
	}
}

func TestCacheWorkingSetProperty(t *testing.T) {
	// Property: a working set that fits in the cache has no misses after
	// the first pass, regardless of the (power-of-two) geometry.
	f := func(seed int64) bool {
		sizes := []int{512, 1024, 4096}
		ways := []int{1, 2, 4}
		s := sizes[uint64(seed)%3]
		w := ways[uint64(seed/3)%3]
		c := NewCache("t", testGeom(s, w, 64), &FixedLatency{Latency: 10})
		blocks := s / 64
		for pass := 0; pass < 3; pass++ {
			for b := 0; b < blocks; b++ {
				c.Access(uint64(b*64), false, 0)
			}
		}
		return c.Misses() == int64(blocks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	// Cold access: L1 (1) -> L2 miss (10) -> memory (100).
	if done := h.L1I.Access(0x4000, false, 0); done != 111 {
		t.Errorf("cold access done at %d, want 111", done)
	}
	// L1 hit.
	if done := h.L1I.Access(0x4000, false, 200); done != 201 {
		t.Errorf("L1 hit done at %d, want 201", done)
	}
	// L1D cold miss on a block sharing the L2 block: L2 hit.
	if done := h.L1D.Access(0x4040, false, 300); done != 311 {
		t.Errorf("L2 hit done at %d, want 311", done)
	}
}

func TestIBankMapping(t *testing.T) {
	h := NewHierarchy(DefaultHierarchyConfig())
	seen := make(map[int]bool)
	for i := 0; i < 16; i++ {
		b := h.IBankOf(uint64(i * 64))
		if b < 0 || b >= 16 {
			t.Fatalf("bank %d out of range", b)
		}
		seen[b] = true
	}
	if len(seen) != 16 {
		t.Errorf("consecutive blocks hit %d distinct banks, want 16", len(seen))
	}
	if h.IBankOf(0x40) != h.IBankOf(0x40+16*64) {
		t.Error("bank mapping must repeat every 16 blocks")
	}
}

func TestNewCachePanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two sets")
		}
	}()
	NewCache("bad", CacheGeometry{SizeBytes: 3000, Ways: 2, BlockBytes: 64, HitLatency: 1}, nil)
}

func TestNewCachePanicsOnZeroHitLatency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for a zero-cycle hit latency")
		}
	}()
	NewCache("bad", CacheGeometry{SizeBytes: 1024, Ways: 2, BlockBytes: 64, HitLatency: 0}, nil)
}

func TestResetClearsState(t *testing.T) {
	c := NewCache("t", testGeom(512, 2, 64), &FixedLatency{Latency: 10})
	c.Access(0x40, false, 0)
	c.Reset()
	if c.Probe(0x40) || c.Accesses() != 0 || c.Misses() != 0 {
		t.Error("reset did not clear state")
	}
}
