package runner

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/packstore"
	"repro/internal/telemetry"
)

// TestCachePackBackendContract is the cache's pack-store contract: an
// empty miss, write-through of every Put to the pack store, and Len
// counting stored entries. TestCacheMemoryHitMiss covers in-process
// hits and TestCacheDiskRoundTrip the later-process half.
func TestCachePackBackendContract(t *testing.T) {
	store := openStore(t, nil)
	c := NewCache[payload](store, nil, nil)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty pack cache reported a hit")
	}
	c.Put("k1", samplePayload())
	if got, ok := c.Get("k1"); !ok || got.Name != "gcc/PI" {
		t.Fatalf("pack hit = %+v, %v", got, ok)
	}
	if _, err := store.Get("k1"); err != nil {
		t.Error("Put did not write through to the pack store")
	}
	c.Put("k1", samplePayload()) // an overwrite is still one entry
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

// TestCachePackCorruptedEntryRecovers covers the CRC half of
// self-healing: a needle whose payload rots on disk reads as a miss
// (quarantined by CRC), and a recompute re-stores it.
func TestCachePackCorruptedEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCacheWith[payload](CacheConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("deadbeef", samplePayload())
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the last payload byte of the only needle in the volume.
	vol := filepath.Join(dir, "pack-000000.dat")
	data, err := os.ReadFile(vol)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(vol, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c2, err := NewCacheWith[payload](CacheConfig{Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get("deadbeef"); ok {
		t.Fatal("corrupted needle served as a hit")
	}
	if m.PackAuditFailures.Value() != 1 {
		t.Errorf("PackAuditFailures = %d, want 1", m.PackAuditFailures.Value())
	}
	c2.Put("deadbeef", samplePayload())
	if _, ok := c2.Get("deadbeef"); !ok {
		t.Error("re-stored entry missed")
	}
}

// TestCachePackWriteFaultDegradesToMiss: a pack append fault past the
// retry budget degrades to a clean miss, now and for a later process, and
// the store hands no needle to its scan function, so no catalog row.
func TestCachePackWriteFaultDegradesToMiss(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	ingested := 0
	store, err := packstore.Open(dir, packstore.Options{}, func(string, []byte) { ingested++ })
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache[payload](store, m, nil)
	c.SetFaultHook(func(op string) error {
		if op == "write" {
			return errors.New("injected append fault")
		}
		return nil
	})
	c.Put("abc123", samplePayload())
	if m.DiskErrors.Value() != 1 {
		t.Errorf("DiskErrors = %d, want 1", m.DiskErrors.Value())
	}
	if ingested != 0 {
		t.Error("an entry the store never took was ingested")
	}
	if _, ok := c.Get("abc123"); ok {
		t.Error("phantom hit after failed append")
	}
	c.SetFaultHook(nil)
	c.Close()

	c2, err := NewCacheWith[payload](CacheConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get("abc123"); ok {
		t.Error("phantom hit after failed append")
	}
	// The store is still writable past the failed append.
	c2.Put("abc123", samplePayload())
	if _, ok := c2.Get("abc123"); !ok {
		t.Error("re-store after failed append missed")
	}
}
