package cache

import (
	"testing"
	"testing/quick"
)

func newHierarchy() (*Cache, *Cache, *Cache) {
	l2 := New(DefaultL2(), nil)
	l1d := New(DefaultL1D(), l2)
	l1i := New(DefaultL1I(), l2)
	return l1d, l1i, l2
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{SizeBytes: 64, Assoc: 2, BlockSize: 33}, // non-pow2 block
		{SizeBytes: 96, Assoc: 1, BlockSize: 32}, // non-pow2 sets
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: New(%+v) did not panic", i, cfg)
				}
			}()
			New(cfg, nil)
		}()
	}
}

func TestDefaultGeometries(t *testing.T) {
	l1d, _, l2 := newHierarchy()
	if l1d.sets != 1024 {
		t.Errorf("L1D sets = %d, want 1024", l1d.sets)
	}
	if l2.sets != 16384 {
		t.Errorf("L2 sets = %d, want 16384", l2.sets)
	}
}

func TestColdMissThenHit(t *testing.T) {
	l1d, _, _ := newHierarchy()
	lat, miss := l1d.Access(0x1000, false)
	if !miss {
		t.Error("first access should miss")
	}
	// L1 miss -> L2 miss -> memory: 1 + 11 + 100.
	if lat != 1+11+100 {
		t.Errorf("cold miss latency = %d, want 112", lat)
	}
	lat, miss = l1d.Access(0x1000, false)
	if miss || lat != 1 {
		t.Errorf("hit = lat %d miss %v, want 1,false", lat, miss)
	}
	// Same block, different word: still a hit.
	if _, miss := l1d.Access(0x101f, false); miss {
		t.Error("same-block access missed")
	}
}

func TestL2HitLatency(t *testing.T) {
	l2 := New(DefaultL2(), nil)
	l1 := New(DefaultL1D(), l2)
	l1.Access(0x4000, false) // fills both levels
	// Evict 0x4000 from 2-way L1 set by touching two conflicting blocks:
	// L1 has 1024 sets * 32B = 32K stride per way.
	l1.Access(0x4000+32<<10, false)
	l1.Access(0x4000+64<<10, false)
	lat, miss := l1.Access(0x4000, false)
	if !miss {
		t.Fatal("expected L1 miss after eviction")
	}
	if lat != 1+11 {
		t.Errorf("L1-miss/L2-hit latency = %d, want 12", lat)
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64, Assoc: 2, BlockSize: 32, Latency: 1, WriteBack: true}
	c := New(cfg, nil) // 1 set, 2 ways
	c.Access(0x000, false)
	c.Access(0x100, false)
	c.Access(0x000, false) // touch -> 0x100 is LRU
	c.Access(0x200, false) // evicts 0x100
	if _, miss := c.Access(0x000, false); miss {
		t.Error("MRU block was evicted")
	}
	if _, miss := c.Access(0x100, false); !miss {
		t.Error("LRU block was not evicted")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64, Assoc: 1, BlockSize: 32, Latency: 1, WriteBack: true}
	l2 := New(Config{Name: "b", SizeBytes: 1 << 10, Assoc: 1, BlockSize: 32, Latency: 11, WriteBack: true}, nil)
	c := New(cfg, l2)
	c.Access(0x000, true) // dirty
	if dirtyIn(l2, 0x000) {
		t.Fatal("a read fill left the L2 copy dirty")
	}
	c.Access(0x100, false) // conflicts (2 sets... wait 64/32=2 sets)
	// 2 sets: 0x000 -> set0, 0x100 -> set0 (bit5 selects set: 0x100 has
	// bit5=0 -> set0). Evicts dirty block -> writeback.
	if !dirtyIn(l2, 0x000) {
		t.Error("evicted dirty block not written back to L2")
	}
}

// dirtyIn reports whether c holds addr's block dirty. A write-back is
// seen as the next level's copy turning dirty.
func dirtyIn(c *Cache, addr uint64) bool {
	for _, l := range c.set(addr) {
		if l.valid && l.tag == addr>>c.tagShift {
			return l.dirty
		}
	}
	return false
}

func TestWriteHitMarksDirty(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64, Assoc: 1, BlockSize: 32, Latency: 1, WriteBack: true}
	l2 := New(Config{Name: "b", SizeBytes: 1 << 10, Assoc: 1, BlockSize: 32, Latency: 11, WriteBack: true}, nil)
	c := New(cfg, l2)
	c.Access(0x000, false) // clean fill
	c.Access(0x000, true)  // write hit -> dirty
	c.Access(0x080, false) // same set (bit5=0? 0x80: bits [5]=0 -> set0), evict
	if !dirtyIn(l2, 0x000) {
		t.Error("block dirtied by a write hit not written back on eviction")
	}
}

func TestMissRateStats(t *testing.T) {
	l1d, _, _ := newHierarchy()
	misses := 0
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 100; i++ {
			if _, miss := l1d.Access(uint64(i)*32, false); miss {
				misses++
			}
		}
	}
	if misses != 100 {
		t.Errorf("misses = %d of 200 accesses, want 100", misses)
	}
}

// Property: a working set smaller than the cache, accessed repeatedly,
// must incur only compulsory misses.
func TestSmallWorkingSetOnlyCompulsoryMisses(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		l1 := New(DefaultL1D(), nil)
		nblocks := int(n8%64) + 1 // well under 2K blocks
		misses := 0
		for pass := 0; pass < 3; pass++ {
			for i := 0; i < nblocks; i++ {
				addr := (seed + uint64(i)*32) & 0xffff_ffff
				if _, miss := l1.Access(addr, i%3 == 0); miss {
					misses++
				}
			}
		}
		return misses <= nblocks+1 // +1 for straddle
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := DefaultTLB()
	lat, miss := tlb.Access(0x1000)
	if !miss || lat != 30 {
		t.Errorf("cold TLB access = %d,%v, want 30,true", lat, miss)
	}
	lat, miss = tlb.Access(0x1fff) // same 4K page
	if miss || lat != 0 {
		t.Errorf("same-page access = %d,%v, want 0,false", lat, miss)
	}
	if _, miss := tlb.Access(0x2000); !miss {
		t.Error("next page should miss")
	}
}

func TestTLBCapacityLRU(t *testing.T) {
	tlb := NewTLB(4, 12, 30)
	for p := 0; p < 4; p++ {
		tlb.Access(uint64(p) << 12)
	}
	tlb.Access(0) // touch page 0
	tlb.Access(5 << 12)
	// Page 1 was LRU and must be evicted; page 0 must survive.
	if _, miss := tlb.Access(0); miss {
		t.Error("MRU page evicted")
	}
	if _, miss := tlb.Access(1 << 12); !miss {
		t.Error("LRU page not evicted")
	}
}

func TestNewTLBPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTLB(0,...) did not panic")
		}
	}()
	NewTLB(0, 12, 30)
}
