package packstore

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// FuzzVolumeScan opens a store whose only volume holds arbitrary bytes
// and reads every entry back. It holds three properties: no panic;
// nothing allocated from a length field beyond the bytes present (every
// indexed needle lies inside the volume, and Get allocates exactly its
// span); and corrupt bytes become a truncated tail or a quarantined miss,
// never an Open or Get error or a payload that no whole CRC-valid
// needle holds. Seed corpora live in testdata/fuzz.
func FuzzVolumeScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, vol []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "pack-000000.dat"), vol, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on a corrupt volume: %v", err)
		}
		defer s.Close()
		if size := s.vols[0].size; size > int64(len(vol)) {
			t.Fatalf("kept %d volume bytes of %d", size, len(vol))
		}
		type entry struct {
			key string
			loc needleLoc
		}
		var entries []entry
		for key, loc := range s.index {
			if loc.vol != 0 || loc.off+loc.span() > s.vols[0].size {
				t.Fatalf("%q indexed at %+v, outside the %d-byte volume", key, loc, s.vols[0].size)
			}
			entries = append(entries, entry{key, loc})
		}
		served := 0
		for _, e := range entries {
			data, err := s.Get(e.key)
			if errors.Is(err, fs.ErrNotExist) {
				continue // quarantined
			}
			if err != nil {
				t.Fatalf("Get(%q): %v", e.key, err)
			}
			served++
			body := vol[e.loc.off+headerSize : e.loc.off+e.loc.span()]
			if !bytes.Equal(body, append([]byte(e.key), data...)) {
				t.Fatalf("Get(%q) served bytes its needle does not hold", e.key)
			}
		}
		if s.Len() != served {
			t.Fatalf("Len = %d after reading every entry, %d served", s.Len(), served)
		}
		if keys := s.Keys(); len(keys) != served {
			t.Fatalf("Keys lists %d entries after reading every entry, %d served", len(keys), served)
		}
		// The store stays writable after recovery.
		if err := s.Put("after-recovery", []byte("ok")); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		if got, err := s.Get("after-recovery"); err != nil || string(got) != "ok" {
			t.Fatalf("Get after recovery = %q, %v", got, err)
		}
	})
}
