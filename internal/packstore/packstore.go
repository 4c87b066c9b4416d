// Package packstore is the run cache's persistent layer: an append-only
// pack-volume blob store for millions of small cached runs. Entries are
// appended as CRC-checked needles into bounded-size pack volumes and
// located through an in-memory needle index (key → volume, offset,
// length) that is rebuilt by scanning the volumes on open. One cached
// DTM run costs one buffered write on store and one pread on load,
// rather than a create+write+rename and an open+read+close per entry.
// A scan function sees every needle, at open and on Put: that is how the
// run catalog (internal/runindex), whose rows ride at the head of the
// needles, stays derived state of the store. Only pack-%06d.dat volumes
// are read; any other file in the directory (such as the per-entry
// <key>.json files older builds wrote) is left untouched.
//
// Durability follows the run cache's contract, not a database's: there
// is no fsync, and a crash may lose the tail of the active volume. What
// the format guarantees is that a torn tail is *detected* — the
// cold-start scan truncates the volume past the last structurally valid
// needle and every earlier entry is served — and that payload corruption
// anywhere is caught by the per-needle CRC and degrades to a miss, never
// a bad payload.
//
// The store is append-only: nothing is ever deleted or rewritten in
// place. A second Put of a key appends a needle that supersedes the
// first, and the superseded and quarantined needles stay in their volume
// as unreferenced bytes. A key is stored twice only when two requests
// miss on it at once or a corrupt entry is recomputed, so those bytes
// stay a few kilobytes and no compactor reclaims them (DESIGN.md, "One
// store per cache directory"). Volumes written by older builds, which
// could append tombstones, still open: a tombstone removes its key.
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
//	flags   uint8   0 (older builds set bit 0 on a tombstone)
//	keyLen  uint16
//	dataLen uint32
//	crc     uint32  IEEE CRC32 over flags ∥ key ∥ data
//
// The magic and length fields make the stream self-framing, so a
// cold-start scan can walk a volume without any external index; the CRC
// covers everything the lengths do not structurally pin down.
const (
	needleMagic = 0x4c44454e
	headerSize  = 4 + 1 + 2 + 4 + 4

	// maxDataLen bounds one needle's payload; anything larger than this
	// during a scan is treated as a torn header rather than followed.
	maxDataLen = 1 << 30

	// scanBuf is the open-time scan's read buffer, and so the most of a
	// payload's head the scan function is handed.
	scanBuf = 1 << 20
)

// Options tunes a Store.
type Options struct {
	// MaxVolumeBytes seals the active volume and rolls to a new one once
	// its size passes this bound; <= 0 means 64 MiB.
	MaxVolumeBytes int64
}

func (o Options) withDefaults() Options {
	if o.MaxVolumeBytes <= 0 {
		o.MaxVolumeBytes = 64 << 20
	}
	return o
}

// needleLoc is one index entry: where a key's current needle lives.
type needleLoc struct {
	vol    uint32 // position in Store.vols
	off    int64  // offset of the needle header within the volume
	keyLen uint16
	size   uint32 // payload (data) length
}

// span is the needle's total on-disk footprint.
func (l needleLoc) span() int64 { return headerSize + int64(l.keyLen) + int64(l.size) }

// volume is one pack file.
type volume struct {
	id   uint32
	f    *os.File
	size int64
}

// Store is the pack-volume store. All methods are safe for concurrent
// use: lookups share a read lock and appends serialize on the write
// lock. A volume file is never replaced, so a Get reads its needle
// outside the lock.
type Store struct {
	dir  string
	opts Options
	scan func(key string, head []byte)

	mu      sync.RWMutex
	index   map[string]needleLoc
	vols    []*volume // ascending id; the last is active
	faults  func(op string) error
	metrics *telemetry.CacheMetrics
	closed  bool
}

// Open opens (or creates) a pack store in dir, rebuilding the needle
// index by scanning every volume's needles in volume order. A torn tail
// — a crash mid-append — is truncated at the last structurally valid
// needle boundary; every earlier entry is served. scan, when non-nil, is
// handed the key and payload head (up to 1 MiB at open, all of it on
// Put) of every needle the scan keeps, in append order and superseded
// ones included, then of every needle Put appends. The head is borrowed
// and its CRC unchecked.
func Open(dir string, opts Options, scan func(key string, head []byte)) (*Store, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("packstore: %w", err)
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		scan: scan,
	}
	if err := s.load(); err != nil {
		s.closeFiles()
		return nil, err
	}
	return s, nil
}

// volumePath names volume id's pack file.
func (s *Store) volumePath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("pack-%06d.dat", id))
}

// load scans the directory, rebuilds the index, and opens the active
// volume (creating volume 0 for an empty store).
func (s *Store) load() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "pack-*.dat"))
	if err != nil {
		return fmt.Errorf("packstore: %w", err)
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
	s.index = make(map[string]needleLoc, EstimateNeedles(s.dir))
	for _, id := range ids {
		if err := s.scanVolume(id); err != nil {
			return err
		}
	}
	if len(s.vols) == 0 {
		return s.rollVolume(0)
	}
	return nil
}

// EstimateNeedles estimates how many needles the pack volumes in dir
// hold at about 1.5 KB each, one cached result's size, so a million-entry
// open pre-sizes its indexes; a low estimate only leaves room to grow.
func EstimateNeedles(dir string) int {
	names, _ := filepath.Glob(filepath.Join(dir, "pack-*.dat"))
	var total int64
	for _, name := range names {
		if st, err := os.Stat(name); err == nil {
			total += st.Size()
		}
	}
	return int(total / 1500)
}

// scanVolume walks one volume's needles in order, replaying them into
// the index and handing each payload's head to s.scan. A structurally
// invalid header or a short tail truncates the volume at the last valid
// boundary — the torn-append recovery path. Payload CRCs are
// deliberately not verified here (cold start over millions of needles
// must stay fast); Get verifies them. The scan is one buffered
// sequential read, not per-needle preads.
func (s *Store) scanVolume(id uint32) error {
	f, err := os.OpenFile(s.volumePath(id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("packstore: %w", err)
	}
	pos := uint32(len(s.vols))
	v := s.addVolume(id, f)
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("packstore: %w", err)
	}
	fileSize := st.Size()

	r := bufio.NewReaderSize(f, scanBuf)
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
		head, err := r.Peek(int(min(dataLen, scanBuf)))
		if err != nil {
			break
		}
		if flags != 0 {
			// An older build's tombstone: the key was deleted.
			delete(s.index, string(keyBuf[:keyLen]))
		} else {
			key := string(keyBuf[:keyLen])
			s.index[key] = needleLoc{vol: pos, off: off, keyLen: keyLen, size: dataLen}
			if s.scan != nil {
				s.scan(key, head)
			}
		}
		if _, err := r.Discard(int(dataLen)); err != nil {
			break
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
	s.addVolume(id, f)
	return nil
}

// addVolume registers f as the newest volume, the one appends go to.
func (s *Store) addVolume(id uint32, f *os.File) *volume {
	v := &volume{id: id, f: f}
	s.vols = append(s.vols, v)
	if m := s.metrics; m != nil {
		m.PackVolumes.Set(float64(len(s.vols)))
	}
	return v
}

// SetMetrics routes the volume gauge and the audit-failure counter to
// m. Not safe to call concurrently with store use.
func (s *Store) SetMetrics(m *telemetry.CacheMetrics) {
	s.metrics = m
	m.PackVolumes.Set(float64(len(s.vols)))
}

// SetFaultHook installs a fault injector consulted before each disk
// operation ("read", "write"); a non-nil return is surfaced as
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

// locate is the allocation-free lookup path: key → needle location and
// the volume file holding it.
func (s *Store) locate(key string) (needleLoc, *os.File, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	loc, ok := s.index[key]
	if !ok {
		return needleLoc{}, nil, false
	}
	return loc, s.vols[loc.vol].f, true
}

// Get returns key's payload. A missing key returns fs.ErrNotExist. A
// needle whose CRC no longer matches is quarantined — dropped from the
// index, the audit-failure counter bumped — and reported as
// fs.ErrNotExist, so callers see a recomputable miss rather than a
// corrupt payload or a batch failure.
func (s *Store) Get(key string) ([]byte, error) {
	loc, f, ok := s.locate(key)
	if !ok {
		return nil, fs.ErrNotExist
	}
	if err := s.fault("read"); err != nil {
		return nil, err
	}
	buf := make([]byte, loc.span())
	if _, err := f.ReadAt(buf, loc.off); err != nil {
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
	if magic != needleMagic || flags != 0 ||
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
// miss; its bytes stay in the volume.
func (s *Store) quarantine(key string, loc needleLoc) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == loc {
		delete(s.index, key)
	}
	s.mu.Unlock()
	if m := s.metrics; m != nil {
		m.PackAuditFailures.Inc()
	}
}

// Put appends key's payload as a new needle, superseding any previous
// one, and hands it to the scan function. The write is a single buffered
// append; readers only see the entry once the index points at it, so a
// torn write is never served.
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
	loc, err := s.append(key, data)
	if err != nil {
		return err
	}
	s.index[key] = loc
	if s.scan != nil {
		s.scan(key, data)
	}
	return nil
}

// append writes one needle at the active volume's tail, rolling to a new
// volume first if the active one is full. Caller holds the write lock.
func (s *Store) append(key string, data []byte) (needleLoc, error) {
	if v := s.vols[len(s.vols)-1]; v.size >= s.opts.MaxVolumeBytes {
		if err := s.rollVolume(v.id + 1); err != nil {
			return needleLoc{}, err
		}
	}
	if err := s.fault("write"); err != nil {
		return needleLoc{}, err
	}
	buf := encodeNeedle(0, key, data)
	v := s.vols[len(s.vols)-1]
	if _, err := v.f.WriteAt(buf, v.size); err != nil {
		// The tail past v.size is now undefined; drop it so the next
		// append does not build on torn bytes.
		v.f.Truncate(v.size)
		return needleLoc{}, err
	}
	loc := needleLoc{vol: uint32(len(s.vols) - 1), off: v.size, keyLen: uint16(len(key)), size: uint32(len(data))}
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

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Close closes every volume file. Closing a closed store returns
// os.ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return os.ErrClosed
	}
	s.closed = true
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
