// Package cache models the memory hierarchy of Table 2: set-associative
// write-back caches with LRU replacement (L1 I/D 64 KB 2-way 32 B blocks,
// unified L2 2 MB 4-way 32 B blocks, 11-cycle latency), a 100-cycle main
// memory, and a 128-entry fully-associative TLB with a 30-cycle miss
// penalty.
//
// The model is functional-timing: an access returns its total latency and
// whether each level missed; the simulator charges the latency to the
// requesting instruction and the access counts drive the power model.
package cache

import "fmt"

// Config sizes one cache level.
type Config struct {
	Name      string
	SizeBytes int
	Assoc     int
	BlockSize int
	// Latency is the hit latency in cycles.
	Latency int
	// WriteBack selects write-back (true) vs write-through.
	WriteBack bool
}

// DefaultL1D returns Table 2's L1 data cache configuration.
func DefaultL1D() Config {
	return Config{Name: "dl1", SizeBytes: 64 << 10, Assoc: 2, BlockSize: 32, Latency: 1, WriteBack: true}
}

// DefaultL1I returns Table 2's L1 instruction cache configuration.
func DefaultL1I() Config {
	return Config{Name: "il1", SizeBytes: 64 << 10, Assoc: 2, BlockSize: 32, Latency: 1, WriteBack: true}
}

// DefaultL2 returns Table 2's unified L2 configuration.
func DefaultL2() Config {
	return Config{Name: "ul2", SizeBytes: 2 << 20, Assoc: 4, BlockSize: 32, Latency: 11, WriteBack: true}
}

// MemLatency is the main-memory access latency in cycles (Table 2).
const MemLatency = 100

type line struct {
	valid bool
	dirty bool
	tag   uint64
	lru   uint64
}

// Cache is one level of the hierarchy. Next points to the lower level; a
// nil Next means misses go to main memory.
type Cache struct {
	cfg      Config
	sets     int
	setShift uint
	tagShift uint
	lines    []line
	clock    uint64
	next     *Cache
}

// New builds a cache level backed by next (nil = main memory).
func New(cfg Config, next *Cache) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Assoc <= 0 || cfg.BlockSize <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	if cfg.BlockSize&(cfg.BlockSize-1) != 0 {
		panic(fmt.Sprintf("cache: block size %d not a power of two", cfg.BlockSize))
	}
	sets := cfg.SizeBytes / (cfg.Assoc * cfg.BlockSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: %s has %d sets, want a power of two", cfg.Name, sets))
	}
	shift := uint(0)
	for 1<<shift < cfg.BlockSize {
		shift++
	}
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setShift: shift,
		tagShift: shift + setBits,
		lines:    make([]line, sets*cfg.Assoc),
		next:     next,
	}
}

func (c *Cache) set(addr uint64) []line {
	s := int((addr >> c.setShift) & uint64(c.sets-1))
	return c.lines[s*c.cfg.Assoc : (s+1)*c.cfg.Assoc]
}

// Access performs a read (write=false) or write (write=true) of addr and
// returns the total latency in cycles including any lower-level fills, and
// whether this level missed.
func (c *Cache) Access(addr uint64, write bool) (lat int, miss bool) {
	c.clock++
	tag := addr >> c.tagShift
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = c.clock
			if write {
				if c.cfg.WriteBack {
					set[i].dirty = true
					return c.cfg.Latency, false
				}
				// Write-through: propagate without stalling
				// the pipeline model beyond the hit latency.
				c.fillBelow(addr, true)
				return c.cfg.Latency, false
			}
			return c.cfg.Latency, false
		}
	}
	// Miss: fetch from below, install with LRU replacement.
	below := c.fillBelow(addr, false)
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		// Write-back of the victim to the next level; modeled as
		// off the critical path (no added latency), as in
		// sim-outorder's default.
		if c.next != nil {
			c.next.writebackFill(c.reconstruct(addr, set[victim].tag))
		}
	}
	set[victim] = line{valid: true, dirty: write && c.cfg.WriteBack, tag: tag, lru: c.clock}
	return c.cfg.Latency + below, true
}

// reconstruct rebuilds a victim block address from its tag and the set of
// the incoming address (same set by construction).
func (c *Cache) reconstruct(incoming uint64, victimTag uint64) uint64 {
	setIdx := (incoming >> c.setShift) & uint64(c.sets-1)
	return victimTag<<c.tagShift | setIdx<<c.setShift
}

// fillBelow fetches addr from the next level (or memory) and returns the
// added latency.
func (c *Cache) fillBelow(addr uint64, write bool) int {
	if c.next == nil {
		return MemLatency
	}
	lat, _ := c.next.Access(addr, write)
	return lat
}

// writebackFill installs a dirty victim into this level without charging
// latency to the requester.
func (c *Cache) writebackFill(addr uint64) {
	c.clock++
	tag := addr >> c.tagShift
	set := c.set(addr)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].dirty = true
			set[i].lru = c.clock
			return
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = line{valid: true, dirty: true, tag: tag, lru: c.clock}
}

// Clone returns an independent deep copy of this level backed by next.
// The caller is responsible for reproducing the hierarchy topology: clone
// the shared L2 first, then clone each L1 with the L2 clone as next, so the
// copy preserves the original's sharing structure exactly.
func (c *Cache) Clone(next *Cache) *Cache {
	q := *c
	q.lines = append(c.lines[:0:0], c.lines...)
	q.next = next
	return &q
}

// TLB is the 128-entry fully-associative translation buffer of Table 2.
// The fully-associative lookup is implemented with a map plus per-slot LRU
// stamps; behaviourally it is an exact LRU CAM.
type TLB struct {
	entries     int
	pageShift   uint
	missPenalty int
	slots       []struct {
		valid bool
		vpn   uint64
		lru   uint64
	}
	index map[uint64]int // vpn -> slot
	clock uint64
}

// DefaultTLB returns Table 2's TLB: 128 entries, fully associative,
// 30-cycle miss penalty, 4 KB pages.
func DefaultTLB() *TLB { return NewTLB(128, 12, 30) }

// NewTLB builds a TLB with the given entry count, page shift (log2 page
// size) and miss penalty in cycles.
func NewTLB(entries int, pageShift uint, missPenalty int) *TLB {
	if entries <= 0 || pageShift == 0 || missPenalty < 0 {
		panic(fmt.Sprintf("cache: invalid TLB config %d/%d/%d", entries, pageShift, missPenalty))
	}
	t := &TLB{entries: entries, pageShift: pageShift, missPenalty: missPenalty}
	t.slots = make([]struct {
		valid bool
		vpn   uint64
		lru   uint64
	}, entries)
	t.index = make(map[uint64]int, entries)
	return t
}

// Access translates addr, returning the added latency (0 on hit).
func (t *TLB) Access(addr uint64) (lat int, miss bool) {
	t.clock++
	vpn := addr >> t.pageShift
	if i, ok := t.index[vpn]; ok {
		t.slots[i].lru = t.clock
		return 0, false
	}
	victim := 0
	for i := range t.slots {
		if !t.slots[i].valid {
			victim = i
			break
		}
		if t.slots[i].lru < t.slots[victim].lru {
			victim = i
		}
	}
	if t.slots[victim].valid {
		delete(t.index, t.slots[victim].vpn)
	}
	t.slots[victim].valid = true
	t.slots[victim].vpn = vpn
	t.slots[victim].lru = t.clock
	t.index[vpn] = victim
	return t.missPenalty, true
}

// Clone returns an independent deep copy of the TLB, including its LRU
// stamps and the vpn index.
func (t *TLB) Clone() *TLB {
	q := *t
	q.slots = append(t.slots[:0:0], t.slots...)
	q.index = make(map[uint64]int, len(t.index))
	for k, v := range t.index {
		q.index[k] = v
	}
	return &q
}
