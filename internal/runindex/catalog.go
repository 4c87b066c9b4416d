// Package runindex is the queryable run catalog: a dimension-indexed
// layer over completed simulation runs. The run cache (runner.Cache over
// the pack store) answers exact-key lookups only; the catalog
// ingests every stored result into a compact append-only record log plus
// in-memory B+-tree secondary indexes keyed by config dimensions (policy,
// trigger temperature, controller gains, workload, thermal stride, cores,
// instruction budget), so sweeps and the cluster coordinator can answer
// point, range and composite grid queries — "all runs with trigger in
// [81,83) under PI" — without recomputing or touching workers.
//
// The index is derived state. On cold start it replays catalog.log
// (torn tails truncated at the last valid frame, CRC-failing frames
// quarantined as misses, exactly like the packstore needle index), and a
// catalog that lost its log entirely is rebuilt from a packstore scan of
// the run cache itself. Ingest and lookup hot paths are allocation-free
// in the steady state and gated by TestZeroAllocIndex*.
package runindex

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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

	dir         string   // "" = memory-only
	logf        *os.File // nil when memory-only
	logSize     int64    // append offset (end of the last valid frame)
	encBuf      []byte
	quarantined int
}

// Open opens (or creates) a catalog. dir == "" builds a memory-only
// catalog (tests, benchmarks); otherwise dir holds catalog.log, replayed
// here with torn-tail truncation and per-frame CRC quarantine.
func Open(dir string, opts Options) (*Catalog, error) {
	capn := opts.Capacity
	if capn < 1024 {
		capn = 1024
	}
	c := &Catalog{
		opts:      opts,
		dir:       dir,
		recs:      make([]Record, 0, capn),
		benchIDs:  make(map[string]uint64, 64),
		policyIDs: make(map[string]uint64, 64),
		encBuf:    make([]byte, 0, 4096),
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

	if dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runindex: %w", err)
	}
	path := filepath.Join(dir, "catalog.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runindex: %w", err)
	}
	c.logf = f
	if err := c.replayLog(); err != nil {
		f.Close()
		return nil, err
	}
	c.publishGauge()
	return c, nil
}

func nextPow2(n uint64) uint64 {
	p := uint64(1024)
	for p < n {
		p <<= 1
	}
	return p
}

// replayLog rebuilds the in-memory index from catalog.log. A structural
// break (bad magic, impossible length, frame past EOF) is a torn append:
// the log is truncated there and everything earlier is served. A frame
// that is structurally whole but fails its CRC or does not decode is
// quarantined — skipped and counted — and the scan continues, so one
// corrupt record degrades to one miss, not a lost catalog.
func (c *Catalog) replayLog() error {
	st, err := c.logf.Stat()
	if err != nil {
		return fmt.Errorf("runindex: %w", err)
	}
	size := st.Size()
	if size == 0 {
		return nil
	}
	buf := make([]byte, size)
	if _, err := c.logf.ReadAt(buf, 0); err != nil {
		return fmt.Errorf("runindex: reading log: %w", err)
	}
	off := int64(0)
	for off+frameHeader <= size {
		b := buf[off:]
		magic := binary.LittleEndian.Uint32(b[0:4])
		payloadLen := int64(binary.LittleEndian.Uint32(b[4:8]))
		if magic != frameMagic || payloadLen == 0 || payloadLen > maxPayloadLen {
			break // torn or foreign bytes: truncate here
		}
		if off+frameHeader+payloadLen > size {
			break // frame extends past EOF: torn append
		}
		crc := binary.LittleEndian.Uint32(b[8:12])
		payload := b[frameHeader : frameHeader+payloadLen]
		if crc32.ChecksumIEEE(payload) != crc {
			c.quarantined++
			off += frameHeader + payloadLen
			continue
		}
		rec, ok := decodeRecord(payload)
		if !ok {
			c.quarantined++
			off += frameHeader + payloadLen
			continue
		}
		c.addLocked(&rec)
		off += frameHeader + payloadLen
	}
	if off < size {
		if err := c.logf.Truncate(off); err != nil {
			return fmt.Errorf("runindex: truncating torn log tail: %w", err)
		}
	}
	c.logSize = off
	if m := c.opts.Metrics; m != nil && c.quarantined > 0 {
		m.Quarantined.Add(int64(c.quarantined))
	}
	return nil
}

// Close releases the log handle. Nil-safe.
func (c *Catalog) Close() error {
	if c == nil || c.logf == nil {
		return nil
	}
	return c.logf.Close()
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

// Ingest adds one record, appending it to the log and every index.
// Re-ingesting a key already cataloged is a cheap no-op (false). Log
// write failures are swallowed after the append-or-nothing attempt — a
// catalog that cannot persist still serves queries this process.
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
	if c.logf != nil {
		// A failed append is swallowed: the record still serves queries
		// from memory, and a cold start recovers it from the pack store.
		c.encBuf = appendRecord(c.encBuf[:0], &rec)
		if _, err := c.logf.WriteAt(c.encBuf, c.logSize); err == nil {
			c.logSize += int64(len(c.encBuf))
		}
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

// addLocked inserts one replayed/rebuilt record without touching the log.
func (c *Catalog) addLocked(rec *Record) bool {
	slot, id := c.findSlot(rec.Key)
	if id >= 0 {
		return false
	}
	newID := int32(len(c.recs))
	c.recs = append(c.recs, *rec)
	c.keyTable[slot] = newID + 1
	if uint64(len(c.recs))*3 > (c.keyMask+1)*2 {
		c.growTable()
	}
	c.indexLocked(&c.recs[newID], newID)
	return true
}

// indexLocked inserts one record into every secondary index.
func (c *Catalog) indexLocked(rec *Record, id int32) {
	for d := Dim(0); d < NumDims; d++ {
		c.trees[d].insert(keyBits(rec.DimValue(d)), id)
	}
	c.benchTree.insert(intern(c.benchIDs, rec.Bench), id)
	c.policyTree.insert(intern(c.policyIDs, rec.Policy), id)
}

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

// RebuildFromStore scans the run cache's pack store and re-ingests every
// decodable *sim.Result the catalog does not already hold — the recovery
// path for a catalog whose log was lost or torn while the cache survived.
// Recovered records are appended to the log (via the normal ingest path)
// so the next cold start replays them directly. Returns the number of
// records recovered. Entries that do not decode as results are skipped.
func (c *Catalog) RebuildFromStore(store *packstore.Store) (int, error) {
	if c == nil || store == nil {
		return 0, nil
	}
	added := 0
	err := store.Range(func(key string, data []byte) bool {
		var res sim.Result
		if json.Unmarshal(data, &res) != nil || res.Benchmark == "" {
			return true
		}
		if c.Ingest(FromResult(key, &res)) {
			added++
		}
		return true
	})
	if m := c.opts.Metrics; m != nil {
		m.Rebuilds.Inc()
	}
	return added, err
}

func (c *Catalog) publishGauge() {
	if m := c.opts.Metrics; m != nil {
		m.Records.Set(float64(len(c.recs)))
	}
}
