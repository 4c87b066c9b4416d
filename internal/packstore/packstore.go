// Package packstore is the run cache's persistent layer: an append-only
// pack-volume blob store for millions of small cached runs. Entries are
// appended as CRC-checked needles into bounded-size pack volumes and
// located through an in-memory needle index (key → volume, offset,
// length) that is rebuilt by scanning volume headers on cold start. One
// cached DTM run costs one buffered write on store and one pread on
// load, rather than a create+write+rename and an open+read+close per
// entry. Only pack-%06d.dat volumes are read; any other file in the
// directory (such as the per-entry <key>.json files older builds wrote)
// is left untouched.
//
// Durability follows the run cache's contract, not a database's: there
// is no fsync, and a crash may lose the tail of the active volume. What
// the format guarantees is that a torn tail is *detected* — the
// cold-start scan truncates the volume past the last structurally valid
// needle and every earlier entry is served — and that payload corruption
// anywhere is caught by the per-needle CRC and degrades to a miss, never
// a bad payload. Deleted and overwritten needles become dead bytes that
// background compaction reclaims by rewriting a volume's live needles
// and atomically swapping the file into place.
//
// The lookup path (key → needle location) is allocation-free and gated
// by TestZeroAllocNeedleLookup, like the repository's other hot paths.
package packstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// Needle layout (little-endian), immediately followed by key then data:
//
//	magic   uint32  0x4c44454e ("NEDL")
//	flags   uint8   bit 0 = tombstone
//	keyLen  uint16
//	dataLen uint32
//	crc     uint32  IEEE CRC32 over flags ∥ key ∥ data
//
// The magic and length fields make the stream self-framing, so a
// cold-start scan can walk a volume without any external index; the CRC
// covers everything the lengths do not structurally pin down.
const (
	needleMagic   = 0x4c44454e
	headerSize    = 4 + 1 + 2 + 4 + 4
	flagTombstone = 0x01

	// maxDataLen bounds one needle's payload; anything larger than this
	// during a scan is treated as a torn header rather than followed.
	maxDataLen = 1 << 30

	// compactBelow is the live-byte ratio under which a sealed volume
	// becomes a compaction candidate.
	compactBelow = 0.5
)

// Options tunes a Store.
type Options struct {
	// MaxVolumeBytes seals the active volume and rolls to a new one once
	// its size passes this bound; <= 0 means 64 MiB.
	MaxVolumeBytes int64
	// NoAutoCompact disables the background compaction goroutine; tests
	// drive CompactOnce deterministically.
	NoAutoCompact bool
	// Metrics, when non-nil, receives the pack gauges and counters
	// (volumes, live/dead bytes, compactions, audit failures).
	Metrics *telemetry.CacheMetrics
}

func (o Options) withDefaults() Options {
	if o.MaxVolumeBytes <= 0 {
		o.MaxVolumeBytes = 64 << 20
	}
	return o
}

// needleLoc is one index entry: where a key's current needle lives.
type needleLoc struct {
	vol    uint32
	off    int64 // offset of the needle header within the volume
	keyLen uint16
	size   uint32 // payload (data) length
}

// span is the needle's total on-disk footprint.
func (l needleLoc) span() int64 { return headerSize + int64(l.keyLen) + int64(l.size) }

// volume is one pack file. live counts the bytes of needles the index
// currently references; dead counts overwritten, deleted, tombstone and
// quarantined needle bytes, which only compaction reclaims.
type volume struct {
	id   uint32
	f    *os.File
	size int64
	live int64
	dead int64
}

// Store is the pack-volume store. All methods are safe for concurrent
// use: lookups share a read lock, appends and compaction serialize on
// the write lock.
type Store struct {
	dir  string
	opts Options

	mu     sync.RWMutex
	index  map[string]needleLoc
	vols   map[uint32]*volume
	order  []uint32 // volume ids, ascending; last is active
	active *volume
	faults func(op string) error
	closed bool

	compacting bool
	wg         sync.WaitGroup
}

// Open opens (or creates) a pack store in dir, rebuilding the needle
// index by scanning every volume's needle headers in volume order. A
// torn tail — a crash mid-append — is truncated at the last structurally
// valid needle boundary; every earlier entry is served.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("packstore: %w", err)
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: make(map[string]needleLoc),
		vols:  make(map[uint32]*volume),
	}
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.publishGauges()
	return s, nil
}

// volumePath names volume id's pack file.
func (s *Store) volumePath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("pack-%06d.dat", id))
}

// load scans the directory, rebuilds the index, and opens the active
// volume (creating volume 0 for an empty store). Stray .tmp files from a
// compaction interrupted before its rename are deleted: the original
// volume is still intact.
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "pack-*.dat"))
	if err != nil {
		return fmt.Errorf("packstore: %w", err)
	}
	tmps, _ := filepath.Glob(filepath.Join(s.dir, "pack-*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}
	var ids []uint32
	for _, n := range names {
		var id uint32
		if _, err := fmt.Sscanf(filepath.Base(n), "pack-%06d.dat", &id); err != nil {
			continue // foreign file; leave it alone
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	// Pre-size the index from the on-disk byte total so a million-entry
	// rebuild is not dominated by incremental map rehashing. Entries are a
	// few hundred bytes each; a low per-needle estimate only overshoots
	// capacity, never correctness.
	var totalBytes int64
	for _, id := range ids {
		if st, err := os.Stat(s.volumePath(id)); err == nil {
			totalBytes += st.Size()
		}
	}
	if est := totalBytes / 128; est > int64(len(s.index)) {
		s.index = make(map[string]needleLoc, est)
	}
	for _, id := range ids {
		if err := s.scanVolume(id); err != nil {
			return err
		}
	}
	if len(s.order) == 0 {
		if err := s.rollVolume(0); err != nil {
			return err
		}
	} else {
		s.active = s.vols[s.order[len(s.order)-1]]
	}
	return nil
}

// scanVolume walks one volume's needles in order, replaying them into
// the index. A structurally invalid header or a short tail truncates the
// volume at the last valid boundary — the torn-append recovery path.
// Payload CRCs are deliberately not verified here (cold start over
// millions of needles must stay fast); Get and Range verify them. The
// scan is one buffered sequential read, not per-needle preads.
func (s *Store) scanVolume(id uint32) error {
	f, err := os.OpenFile(s.volumePath(id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("packstore: %w", err)
	}
	v := &volume{id: id, f: f}
	s.vols[id] = v // registered up front: same-volume overwrites resolve below
	s.order = append(s.order, id)
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("packstore: %w", err)
	}
	fileSize := st.Size()

	r := bufio.NewReaderSize(f, 1<<20)
	var hdr [headerSize]byte
	keyBuf := make([]byte, 0xffff+1)
	off := int64(0)
	for off+headerSize <= fileSize {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			break
		}
		magic := binary.LittleEndian.Uint32(hdr[0:4])
		flags := hdr[4]
		keyLen := binary.LittleEndian.Uint16(hdr[5:7])
		dataLen := binary.LittleEndian.Uint32(hdr[7:11])
		if magic != needleMagic || keyLen == 0 || dataLen > maxDataLen {
			break // torn or foreign bytes: truncate here
		}
		span := headerSize + int64(keyLen) + int64(dataLen)
		if off+span > fileSize {
			break // needle extends past EOF: torn append
		}
		if _, err := io.ReadFull(r, keyBuf[:keyLen]); err != nil {
			break
		}
		if _, err := r.Discard(int(dataLen)); err != nil {
			break
		}
		key := string(keyBuf[:keyLen])
		if flags&flagTombstone != 0 {
			if old, ok := s.index[key]; ok {
				ov := s.vols[old.vol]
				ov.live -= old.span()
				ov.dead += old.span()
				delete(s.index, key)
			}
			v.dead += span
		} else {
			if old, ok := s.index[key]; ok {
				ov := s.vols[old.vol]
				ov.live -= old.span()
				ov.dead += old.span()
			}
			s.index[key] = needleLoc{vol: id, off: off, keyLen: keyLen, size: dataLen}
			v.live += span
		}
		off += span
	}
	if off < fileSize {
		if err := f.Truncate(off); err != nil {
			return fmt.Errorf("packstore: truncating torn tail of volume %d: %w", id, err)
		}
	}
	v.size = off
	return nil
}

// rollVolume creates and activates an empty volume with the given id.
// Caller holds the write lock (or is single-threaded during Open).
func (s *Store) rollVolume(id uint32) error {
	f, err := os.OpenFile(s.volumePath(id), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("packstore: %w", err)
	}
	v := &volume{id: id, f: f}
	s.vols[id] = v
	s.order = append(s.order, id)
	s.active = v
	return nil
}

// SetFaultHook installs a fault injector consulted before each disk
// operation ("read", "write", "rename"); a non-nil return is surfaced as
// that operation's I/O failure. Used by chaos testing; nil disables. Not
// safe to call concurrently with store use.
func (s *Store) SetFaultHook(f func(op string) error) {
	s.mu.Lock()
	s.faults = f
	s.mu.Unlock()
}

func (s *Store) fault(op string) error {
	if s.faults != nil {
		return s.faults(op)
	}
	return nil
}

// locate is the allocation-free lookup path: key → needle location.
func (s *Store) locate(key string) (needleLoc, bool) {
	s.mu.RLock()
	loc, ok := s.index[key]
	s.mu.RUnlock()
	return loc, ok
}

// Get returns key's payload. A missing key returns fs.ErrNotExist. A
// needle whose CRC no longer matches is quarantined — dropped from the
// index, its bytes marked dead, the audit-failure counter bumped — and
// reported as fs.ErrNotExist, so callers see a recomputable miss rather
// than a corrupt payload or a batch failure.
func (s *Store) Get(key string) ([]byte, error) {
	s.mu.RLock()
	loc, ok := s.index[key]
	if !ok {
		s.mu.RUnlock()
		return nil, fs.ErrNotExist
	}
	if err := s.fault("read"); err != nil {
		s.mu.RUnlock()
		return nil, err
	}
	v := s.vols[loc.vol]
	buf := make([]byte, loc.span())
	_, err := v.f.ReadAt(buf, loc.off)
	s.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	data, ok := verifyNeedle(buf, key)
	if !ok {
		s.quarantine(key, loc)
		return nil, fs.ErrNotExist
	}
	return data, nil
}

// verifyNeedle checks buf (a full needle read at a location the index
// claims holds key) structurally and against its CRC, returning the
// payload.
func verifyNeedle(buf []byte, key string) ([]byte, bool) {
	if len(buf) < headerSize {
		return nil, false
	}
	magic := binary.LittleEndian.Uint32(buf[0:4])
	flags := buf[4]
	keyLen := binary.LittleEndian.Uint16(buf[5:7])
	dataLen := binary.LittleEndian.Uint32(buf[7:11])
	crc := binary.LittleEndian.Uint32(buf[11:15])
	if magic != needleMagic || flags&flagTombstone != 0 ||
		int(keyLen) != len(key) || int64(len(buf)) != headerSize+int64(keyLen)+int64(dataLen) {
		return nil, false
	}
	if string(buf[headerSize:headerSize+int(keyLen)]) != key {
		return nil, false
	}
	h := crc32.NewIEEE()
	h.Write(buf[4:5])         // flags
	h.Write(buf[headerSize:]) // key ∥ data
	if h.Sum32() != crc {
		return nil, false
	}
	return buf[headerSize+int(keyLen):], true
}

// quarantine drops a corrupt needle from the index so it reads as a
// miss; the bytes stay dead until compaction rewrites the volume.
func (s *Store) quarantine(key string, loc needleLoc) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == loc {
		delete(s.index, key)
		if v := s.vols[loc.vol]; v != nil {
			v.live -= loc.span()
			v.dead += loc.span()
		}
	}
	s.mu.Unlock()
	if m := s.opts.Metrics; m != nil {
		m.PackAuditFailures.Inc()
	}
	s.publishGauges()
}

// Put appends key's payload as a new needle, superseding any previous
// one (whose bytes become dead). The write is a single buffered append;
// readers only see the entry once the index points at it, so a torn
// write is never served.
func (s *Store) Put(key string, data []byte) error {
	if len(key) == 0 || len(key) > 0xffff {
		return fmt.Errorf("packstore: key length %d out of range", len(key))
	}
	if int64(len(data)) > maxDataLen {
		return fmt.Errorf("packstore: payload %d bytes exceeds %d", len(data), maxDataLen)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("packstore: store closed")
	}
	loc, err := s.append(0, key, data)
	if err != nil {
		return err
	}
	if old, ok := s.index[key]; ok {
		ov := s.vols[old.vol]
		ov.live -= old.span()
		ov.dead += old.span()
	}
	s.index[key] = loc
	s.vols[loc.vol].live += loc.span()
	s.publishGaugesLocked()
	s.maybeCompactLocked()
	return nil
}

// Delete appends a tombstone so the deletion survives a cold-start
// rebuild, and drops the key from the index. Deleting an absent key is a
// no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("packstore: store closed")
	}
	old, ok := s.index[key]
	if !ok {
		return nil
	}
	loc, err := s.append(flagTombstone, key, nil)
	if err != nil {
		return err
	}
	delete(s.index, key)
	ov := s.vols[old.vol]
	ov.live -= old.span()
	ov.dead += old.span()
	s.vols[loc.vol].dead += loc.span() // the tombstone itself is dead weight
	s.publishGaugesLocked()
	s.maybeCompactLocked()
	return nil
}

// append writes one needle at the active volume's tail, rolling to a new
// volume first if the active one is full. Caller holds the write lock.
func (s *Store) append(flags byte, key string, data []byte) (needleLoc, error) {
	if s.active.size >= s.opts.MaxVolumeBytes {
		if err := s.rollVolume(s.active.id + 1); err != nil {
			return needleLoc{}, err
		}
	}
	if err := s.fault("write"); err != nil {
		return needleLoc{}, err
	}
	buf := encodeNeedle(flags, key, data)
	v := s.active
	if _, err := v.f.WriteAt(buf, v.size); err != nil {
		// The tail past v.size is now undefined; drop it so the next
		// append does not build on torn bytes.
		v.f.Truncate(v.size)
		return needleLoc{}, err
	}
	loc := needleLoc{vol: v.id, off: v.size, keyLen: uint16(len(key)), size: uint32(len(data))}
	v.size += loc.span()
	return loc, nil
}

// encodeNeedle builds one needle's on-disk bytes.
func encodeNeedle(flags byte, key string, data []byte) []byte {
	buf := make([]byte, headerSize+len(key)+len(data))
	binary.LittleEndian.PutUint32(buf[0:4], needleMagic)
	buf[4] = flags
	binary.LittleEndian.PutUint16(buf[5:7], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[7:11], uint32(len(data)))
	copy(buf[headerSize:], key)
	copy(buf[headerSize+len(key):], data)
	h := crc32.NewIEEE()
	h.Write(buf[4:5])
	h.Write(buf[headerSize:])
	binary.LittleEndian.PutUint32(buf[11:15], h.Sum32())
	return buf
}

// Range calls fn for every live entry, verifying each needle as it is
// read; fn returning false stops the iteration. A needle whose CRC no
// longer matches is quarantined and skipped, exactly like a Get miss, so
// derived-state rebuilds (the run catalog) never see corrupt payloads.
// Keys are snapshotted up front: fn may call back into the store.
func (s *Store) Range(fn func(key string, data []byte) bool) error {
	s.mu.RLock()
	keys := make([]string, 0, len(s.index))
	for key := range s.index {
		keys = append(keys, key)
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	for _, key := range keys {
		data, err := s.Get(key)
		if errors.Is(err, fs.ErrNotExist) {
			continue // deleted or quarantined since the snapshot
		}
		if err != nil {
			return err
		}
		if !fn(key, data) {
			return nil
		}
	}
	return nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Close waits for background compaction and closes every volume file.
func (s *Store) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeFiles()
}

func (s *Store) closeFiles() error {
	var first error
	for _, v := range s.vols {
		if v.f != nil {
			if err := v.f.Close(); err != nil && first == nil {
				first = err
			}
			v.f = nil
		}
	}
	return first
}

// publishGauges pushes the volume/byte shape into the metrics bundle.
func (s *Store) publishGauges() {
	if s.opts.Metrics == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.publishGaugesLocked()
}

func (s *Store) publishGaugesLocked() {
	m := s.opts.Metrics
	if m == nil {
		return
	}
	var live, dead int64
	for _, v := range s.vols {
		live += v.live
		dead += v.dead
	}
	m.PackVolumes.Set(float64(len(s.order)))
	m.PackLiveBytes.Set(float64(live))
	m.PackDeadBytes.Set(float64(dead))
}
