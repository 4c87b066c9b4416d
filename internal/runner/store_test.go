package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

// TestCachePackBackendContract is the cache contract on a disk-backed
// cache: hit/miss, private copies on a hit, and write-through of every
// Put to the pack store. TestCacheDiskRoundTrip covers the later-process
// half.
func TestCachePackBackendContract(t *testing.T) {
	c, err := NewCacheWith[payload](CacheConfig{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty pack cache reported a hit")
	}
	c.Put("k1", samplePayload())
	got, ok := c.Get("k1")
	if !ok || got.Name != "gcc/PI" {
		t.Fatalf("pack hit = %+v, %v", got, ok)
	}
	// Private copies: mutating a hit must not poison the next.
	got.Temps[0] = -1
	if again, _ := c.Get("k1"); again.Temps[0] != 111.2 {
		t.Error("pack cache hit shares state with a previous hit")
	}
	if _, err := c.Store().Get("k1"); err != nil {
		t.Error("Put did not write through to the pack store")
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
// retry budget degrades to a clean miss for a later process.
func TestCachePackWriteFaultDegradesToMiss(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c, err := NewCacheWith[payload](CacheConfig{Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
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
	if _, ok := c.Get("abc123"); !ok {
		t.Error("memory layer lost the entry")
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

// TestCacheMemoryLayerBounded is the OOM guard: with a byte cap, the
// memory layer evicts least-recently-used entries instead of growing
// with the disk store, and evicted entries are still served from disk.
func TestCacheMemoryLayerBounded(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c, err := NewCacheWith[payload](CacheConfig{Dir: dir, MemBytes: 2048}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 200
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("key-%03d", i), samplePayload())
	}
	if c.Len() >= n {
		t.Fatalf("memory layer holds %d entries despite a 2 KiB cap", c.Len())
	}
	if m.MemEvictions.Value() == 0 {
		t.Error("no evictions counted")
	}
	// Every entry — including evicted ones — still serves from disk.
	for i := 0; i < n; i++ {
		if _, ok := c.Get(fmt.Sprintf("key-%03d", i)); !ok {
			t.Fatalf("key-%03d lost after eviction", i)
		}
	}
}

func TestCacheUnlimitedMemLayer(t *testing.T) {
	c, err := NewCacheWith[payload](CacheConfig{MemBytes: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), samplePayload())
	}
	if c.Len() != 100 {
		t.Errorf("unlimited mem layer evicted: Len = %d", c.Len())
	}
}

func TestLRUCacheRecencyAndAccounting(t *testing.T) {
	l := newLRUCache(300)
	big := make([]byte, 100)
	l.put("a", big)
	l.put("b", big)
	l.put("c", big)
	l.get("a") // refresh a: b is now least recent
	if ev := l.put("d", big); ev != 1 {
		t.Fatalf("evicted %d, want 1", ev)
	}
	if _, ok := l.get("b"); ok {
		t.Error("least-recently-used entry survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := l.get(k); !ok {
			t.Errorf("%s evicted out of order", k)
		}
	}
	// Updating in place adjusts size without duplicating.
	l.put("a", make([]byte, 10))
	if l.size != 210 {
		t.Errorf("size = %d after shrink-update, want 210", l.size)
	}
	l.remove("a")
	if l.size != 200 || l.len() != 2 {
		t.Errorf("after remove: size=%d len=%d, want 200/2", l.size, l.len())
	}
	// An oversized entry is admitted alone rather than refused.
	if ev := l.put("huge", make([]byte, 1000)); ev != 2 {
		t.Errorf("oversized put evicted %d, want 2", ev)
	}
	if _, ok := l.get("huge"); !ok || l.len() != 1 {
		t.Error("oversized entry not admitted alone")
	}
}
