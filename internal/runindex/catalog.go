// Package runindex is the queryable run catalog: a dimension-indexed
// layer over completed simulation runs. The run cache (runner.Cache over
// the pack store) answers exact-key lookups only; the catalog indexes
// every stored result by config dimensions (policy, trigger temperature,
// controller gains, workload, thermal stride, cores, instruction budget)
// in in-memory B+-tree secondary indexes, so sweeps and the cluster
// coordinator can answer point, range and composite grid queries — "all
// runs with trigger in [81,83) under PI" — without recomputing or
// touching workers.
//
// The catalog is derived state of the pack store. Each stored result's
// row is a CRC-framed record at the head of the result's own needle
// (Frame), so the result and its row are one append, and Open builds the
// catalog during the pack store's own open-time scan: the scan hands
// every needle's head to the catalog, which decodes the frame and
// indexes the row, and every later Put reaches it the same way. A frame
// that fails its CRC is dropped as a miss; a needle without one, written
// by a build that kept the rows in a separate log, is decoded once as a
// result and stored again with its row. Ingest and lookup hot paths are
// allocation-free in the steady state and gated by TestZeroAllocIndex*.
package runindex

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"sync"

	"repro/internal/packstore"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options tunes a Catalog.
type Options struct {
	// Capacity pre-sizes the record arena, key table and index trees so
	// that many ingests proceed without growing anything — the
	// zero-allocation steady state. 0 means a small default; the
	// structures grow past it on demand.
	Capacity int
	// Metrics, when non-nil, receives the runindex_* counters and the
	// index-size gauge.
	Metrics *telemetry.IndexMetrics
}

// Catalog is the run catalog. All methods are safe for concurrent use:
// queries share a read lock, ingest serializes on the write lock.
type Catalog struct {
	mu   sync.RWMutex
	opts Options

	recs []Record
	// keyTable is an open-addressing (linear probe) map from record key
	// to record id; keys live in recs, the table holds ids only, so a
	// steady-state insert allocates nothing. Slots hold id+1 (0 = empty).
	keyTable []int32
	keyMask  uint64

	trees      [NumDims]*btree
	benchTree  *btree // interned workload name -> record ids
	policyTree *btree // interned policy name -> record ids
	benchIDs   map[string]uint64
	policyIDs  map[string]uint64
	// sids holds each record's interned bench and policy ids, indexed by
	// record id, so a query rejects on an equality without reading the
	// record itself.
	sids []sidPair

	// store is the pack store the rows live in; nil while Open scans it.
	store *packstore.Store
	// unframed holds, during that scan, the keys whose latest needle
	// carries no row frame.
	unframed map[string]bool
}

// Open opens (or creates) the pack store in dir and returns its catalog:
// one row for every needle whose row frame holds its CRC, built during
// the store's open-time scan. Needles with no frame (stored by a build
// that kept the rows in a separate log) are read once and stored again
// framed: a result with its row, anything else with an empty frame, so a
// later open reads no payload. The catalog owns the store; Close closes
// it.
func Open(dir string, opts Options) (*Catalog, error) {
	capn := max(opts.Capacity, packstore.EstimateNeedles(dir), 1024)
	c := &Catalog{
		opts:      opts,
		recs:      make([]Record, 0, capn),
		sids:      make([]sidPair, 0, capn),
		benchIDs:  make(map[string]uint64, 64),
		policyIDs: make(map[string]uint64, 64),
		unframed:  make(map[string]bool),
	}
	tableSize := nextPow2(uint64(capn) * 2)
	c.keyTable = make([]int32, tableSize)
	c.keyMask = tableSize - 1
	for d := range c.trees {
		c.trees[d] = newBtree()
		c.trees[d].reserve(capn)
	}
	c.benchTree = newBtree()
	c.benchTree.reserve(capn)
	c.policyTree = newBtree()
	c.policyTree.reserve(capn)

	store, err := packstore.Open(dir, packstore.Options{}, c.scan)
	if err != nil {
		return nil, fmt.Errorf("runindex: %w", err)
	}
	c.store = store
	if err := c.frameUnframed(); err != nil {
		store.Close()
		return nil, err
	}
	c.publishGauge()
	return c, nil
}

// scan is the pack store's scan function: it indexes the row framed at
// the head of a needle, counts a frame that fails its check as
// quarantined, and during Open's scan tracks which keys' latest needle
// has no frame.
func (c *Catalog) scan(key string, head []byte) {
	rec, framed, ok := decodeFrame(key, head)
	if c.store == nil {
		if framed {
			delete(c.unframed, key)
		} else {
			c.unframed[key] = true
		}
	}
	if ok {
		c.Ingest(rec)
	} else if framed {
		if m := c.opts.Metrics; m != nil {
			m.Quarantined.Inc()
		}
	}
}

// frameUnframed stores again, framed, each needle the open-time scan
// found without a frame, in key order: a result with its row, which the
// scan function then indexes, anything else with the empty frame. A
// needle that fails its CRC is skipped.
func (c *Catalog) frameUnframed() error {
	keys := make([]string, 0, len(c.unframed))
	for key := range c.unframed {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		data, err := c.store.Get(key)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return fmt.Errorf("runindex: %w", err)
		}
		var rec Record
		var res sim.Result
		if json.Unmarshal(data, &res) == nil && res.Benchmark != "" {
			rec = FromResult(key, &res)
		}
		if err := c.store.Put(key, Frame(rec, data)); err != nil {
			return fmt.Errorf("runindex: %w", err)
		}
	}
	c.unframed = nil
	return nil
}

// Store returns the pack store the catalog is derived from.
func (c *Catalog) Store() *packstore.Store { return c.store }

// Put stores rec as a row-only needle under its key — for a run with no
// cached result, such as a multicore run — and catalogs it. A row the
// store cannot take is dropped: the run is recomputed next time.
func (c *Catalog) Put(rec Record) {
	if c != nil && rec.Key != "" {
		c.store.Put(rec.Key, Frame(rec, nil))
	}
}

func nextPow2(n uint64) uint64 {
	p := uint64(1024)
	for p < n {
		p <<= 1
	}
	return p
}

// Close closes the pack store. Nil-safe.
func (c *Catalog) Close() error {
	if c == nil {
		return nil
	}
	return c.store.Close()
}

// Len returns the number of cataloged records.
func (c *Catalog) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.recs)
}

// hashKey is FNV-1a over the key string, allocation-free.
func hashKey(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// findSlot probes the key table for key, returning the slot index and
// the record id held there (-1 if the slot is empty). Caller holds a lock.
func (c *Catalog) findSlot(key string) (uint64, int32) {
	slot := hashKey(key) & c.keyMask
	for {
		v := c.keyTable[slot]
		if v == 0 {
			return slot, -1
		}
		id := v - 1
		if c.recs[id].Key == key {
			return slot, id
		}
		slot = (slot + 1) & c.keyMask
	}
}

// growTable rehashes the key table at double size. Caller holds the
// write lock.
func (c *Catalog) growTable() {
	size := (c.keyMask + 1) * 2
	c.keyTable = make([]int32, size)
	c.keyMask = size - 1
	for id := range c.recs {
		slot := hashKey(c.recs[id].Key) & c.keyMask
		for c.keyTable[slot] != 0 {
			slot = (slot + 1) & c.keyMask
		}
		c.keyTable[slot] = int32(id) + 1
	}
}

// intern maps a string onto a stable small id for the given table,
// assigning the next id on first sight.
func intern(table map[string]uint64, s string) uint64 {
	if id, ok := table[s]; ok {
		return id
	}
	id := uint64(len(table)) + 1
	table[s] = id
	return id
}

// Ingest adds one record to every index, in memory only: Put and the
// cache's Put are what store a row. Re-ingesting a key already
// cataloged is a cheap no-op (false).
func (c *Catalog) Ingest(rec Record) bool {
	if c == nil || rec.Key == "" {
		return false
	}
	c.mu.Lock()
	slot, id := c.findSlot(rec.Key)
	if id >= 0 {
		c.mu.Unlock()
		if m := c.opts.Metrics; m != nil {
			m.Duplicates.Inc()
		}
		return false
	}
	newID := int32(len(c.recs))
	c.recs = append(c.recs, rec)
	c.keyTable[slot] = newID + 1
	if uint64(len(c.recs))*3 > (c.keyMask+1)*2 {
		c.growTable()
	}
	c.indexLocked(&c.recs[newID], newID)
	c.mu.Unlock()
	if m := c.opts.Metrics; m != nil {
		m.Ingested.Inc()
		m.Records.Set(float64(newID + 1))
	}
	return true
}

// indexLocked inserts one record into every secondary index.
func (c *Catalog) indexLocked(rec *Record, id int32) {
	for d := Dim(0); d < NumDims; d++ {
		c.trees[d].insert(keyBits(rec.DimValue(d)), id)
	}
	bid, pid := intern(c.benchIDs, rec.Bench), intern(c.policyIDs, rec.Policy)
	c.benchTree.insert(bid, id)
	c.policyTree.insert(pid, id)
	c.sids = append(c.sids, sidPair{uint32(bid), uint32(pid)})
}

// sidPair is one record's interned bench and policy ids.
type sidPair struct{ bench, policy uint32 }

// Get returns the record cataloged under key.
func (c *Catalog) Get(key string) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	c.mu.RLock()
	_, id := c.findSlot(key)
	if id < 0 {
		c.mu.RUnlock()
		return Record{}, false
	}
	rec := c.recs[id]
	c.mu.RUnlock()
	return rec, true
}

func (c *Catalog) publishGauge() {
	if m := c.opts.Metrics; m != nil {
		m.Records.Set(float64(len(c.recs)))
	}
}
