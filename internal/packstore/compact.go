package packstore

// Compaction reclaims the dead bytes that overwrites, deletions and
// quarantined needles leave behind: a sealed volume whose live-byte
// ratio has dropped below the threshold is rewritten with only its
// surviving needles and atomically swapped into place (temp file +
// rename), so readers and a crash at any point see either the old or the
// new complete volume. Tombstones are retained while their key is absent
// from the index — dropping one early could resurrect an older needle in
// an earlier volume on the next cold-start rebuild.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// maybeCompactLocked kicks the background compaction goroutine when a
// sealed volume has decayed below the live-ratio threshold. Caller holds
// the write lock.
func (s *Store) maybeCompactLocked() {
	if s.opts.NoAutoCompact || s.compacting || s.closed {
		return
	}
	if _, ok := s.candidateLocked(); !ok {
		return
	}
	s.compacting = true
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			did, err := s.CompactOnce()
			if err != nil || !did {
				break
			}
		}
		s.mu.Lock()
		s.compacting = false
		s.mu.Unlock()
	}()
}

// candidateLocked picks the sealed volume with the lowest live ratio
// under the threshold. Caller holds a lock.
func (s *Store) candidateLocked() (uint32, bool) {
	best, bestRatio, found := uint32(0), compactBelow, false
	for _, id := range s.order {
		v := s.vols[id]
		if v == s.active || v.size == 0 {
			continue
		}
		if ratio := float64(v.live) / float64(v.size); ratio < bestRatio {
			best, bestRatio, found = id, ratio, true
		}
	}
	return best, found
}

// CompactOnce compacts the worst sealed volume below the live-ratio
// threshold, if any, reporting whether a volume was rewritten. Safe to
// call concurrently; exposed so tests (and operators) can drive
// compaction deterministically.
func (s *Store) CompactOnce() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, nil
	}
	id, ok := s.candidateLocked()
	if !ok {
		return false, nil
	}
	if err := s.compactVolumeLocked(id); err != nil {
		return false, err
	}
	if m := s.opts.Metrics; m != nil {
		m.PackCompactions.Inc()
	}
	s.publishGaugesLocked()
	return true, nil
}

// compactVolumeLocked rewrites volume id keeping only surviving needles
// and swaps the new file into place. On any error the original volume is
// left untouched (the temp file is removed), so a failed compaction
// degrades to postponed reclamation, never data loss.
func (s *Store) compactVolumeLocked(id uint32) error {
	v := s.vols[id]
	if err := s.fault("write"); err != nil {
		return err
	}
	tmpPath := s.volumePath(id) + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("packstore: compact: %w", err)
	}
	discard := func(err error) error {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}

	type moved struct {
		key string
		loc needleLoc
	}
	var moves []moved
	var newLive, newDead, newSize int64

	r := bufio.NewReaderSize(io.NewSectionReader(v.f, 0, v.size), 1<<20)
	w := bufio.NewWriterSize(tmp, 1<<20)
	var hdr [headerSize]byte
	body := make([]byte, 0, 4096)
	off := int64(0)
	for off < v.size {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return discard(fmt.Errorf("packstore: compact scan: %w", err))
		}
		flags := hdr[4]
		keyLen := binary.LittleEndian.Uint16(hdr[5:7])
		dataLen := binary.LittleEndian.Uint32(hdr[7:11])
		span := headerSize + int64(keyLen) + int64(dataLen)
		if binary.LittleEndian.Uint32(hdr[0:4]) != needleMagic || off+span > v.size {
			return discard(fmt.Errorf("packstore: compact scan: volume %d corrupt at offset %d", id, off))
		}
		if cap(body) < int(span)-headerSize {
			body = make([]byte, int(span)-headerSize)
		}
		b := body[:int(span)-headerSize]
		if _, err := io.ReadFull(r, b); err != nil {
			return discard(fmt.Errorf("packstore: compact scan: %w", err))
		}
		key := string(b[:keyLen])

		keep, live := false, false
		if flags&flagTombstone != 0 {
			_, present := s.index[key]
			keep = !present // guards older needles in earlier volumes
		} else if cur, ok := s.index[key]; ok && cur.vol == id && cur.off == off {
			keep, live = true, true
		}
		if keep {
			if _, err := w.Write(hdr[:]); err != nil {
				return discard(err)
			}
			if _, err := w.Write(b); err != nil {
				return discard(err)
			}
			if live {
				moves = append(moves, moved{key, needleLoc{vol: id, off: newSize, keyLen: keyLen, size: dataLen}})
				newLive += span
			} else {
				newDead += span
			}
			newSize += span
		}
		off += span
	}
	if err := w.Flush(); err != nil {
		return discard(err)
	}
	if err := tmp.Close(); err != nil {
		return discard(err)
	}
	if err := s.fault("rename"); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, s.volumePath(id)); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("packstore: compact swap: %w", err)
	}

	// The swap is durable; retarget the in-memory state at the new file.
	nf, err := os.OpenFile(s.volumePath(id), os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("packstore: compact reopen: %w", err)
	}
	v.f.Close()
	v.f = nf
	v.size, v.live, v.dead = newSize, newLive, newDead
	for _, m := range moves {
		s.index[m.key] = m.loc
	}
	return nil
}
