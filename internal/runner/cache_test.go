package runner

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

type payload struct {
	Name  string
	Score float64
	Temps []float64
}

func samplePayload() payload {
	return payload{Name: "gcc/PI", Score: 0.8732, Temps: []float64{111.2, 109.7}}
}

// TestCacheMemoryHitMiss: within one process, a stored entry hits, an
// unknown key misses, and every hit is a private copy of the result.
func TestCacheMemoryHitMiss(t *testing.T) {
	c, err := NewCacheWith[payload](CacheConfig{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty cache reported a hit")
	}
	c.Put("k1", samplePayload())
	got, ok := c.Get("k1")
	if !ok {
		t.Fatal("stored entry missed")
	}
	if got.Name != "gcc/PI" || got.Score != 0.8732 || len(got.Temps) != 2 {
		t.Fatalf("cache returned %+v", got)
	}
	if _, ok := c.Get("k2"); ok {
		t.Error("unknown key reported a hit")
	}
	// Hits are private copies: mutating one must not poison the next.
	got.Temps[0] = -1
	again, _ := c.Get("k1")
	if again.Temps[0] != 111.2 {
		t.Error("cache hit shares state with a previous hit")
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

// TestCacheDiskRoundTrip: an entry written by one process is served by a
// later one over the same directory.
func TestCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := NewCacheWith[payload](CacheConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1.Put("abc123", samplePayload())
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	// A second cache over the same directory — a later process — must
	// serve the entry from disk.
	c2, err := NewCacheWith[payload](CacheConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, ok := c2.Get("abc123")
	if !ok {
		t.Fatal("disk entry missed")
	}
	if got.Name != "gcc/PI" {
		t.Fatalf("disk round-trip returned %+v", got)
	}
	if c2.Len() != 1 {
		t.Errorf("Len() = %d over a one-entry store, want 1", c2.Len())
	}
}

// TestCacheCorruptedEntryRecovers covers the decode half of
// self-healing: a stored entry whose CRC holds but whose bytes are not a
// valid result (written by a build with another result type, say) reads
// as a miss, is dropped from the store, and a recompute re-stores it.
// TestCachePackCorruptedEntryRecovers covers the CRC half.
func TestCacheCorruptedEntryRecovers(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCacheWith[payload](CacheConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Store().Put("deadbeef", []byte("{torn write")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("deadbeef"); ok {
		t.Fatal("undecodable entry served as a hit")
	}
	if _, err := c.Store().Get("deadbeef"); !errors.Is(err, fs.ErrNotExist) {
		t.Error("undecodable entry not deleted from the store")
	}
	c.Put("deadbeef", samplePayload())
	if _, ok := c.Get("deadbeef"); !ok {
		t.Error("re-stored entry missed")
	}
}

// TestCacheIgnoresLegacyFlatEntries: a directory written by a build that
// kept one <sha256>.json file per entry opens as a pack cache. Its
// entries are clean misses — no error, no stale body — the cache works
// normally on top, and the old files are left untouched.
func TestCacheIgnoresLegacyFlatEntries(t *testing.T) {
	dir := t.TempDir()
	key := strings.Repeat("ab", 32)
	legacy := filepath.Join(dir, key+".json")
	body := []byte(`{"Name":"stale","Score":1,"Temps":[1]}`)
	if err := os.WriteFile(legacy, body, 0o644); err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c, err := NewCacheWith[payload](CacheConfig{Dir: dir}, m)
	if err != nil {
		t.Fatalf("legacy directory did not open: %v", err)
	}
	defer c.Close()
	if _, ok := c.Get(key); ok {
		t.Fatal("legacy flat entry served as a hit")
	}
	if m.Misses.Value() != 1 || m.DiskErrors.Value() != 0 || m.DiskRetries.Value() != 0 {
		t.Errorf("legacy miss: misses=%d disk errors=%d retries=%d, want 1/0/0",
			m.Misses.Value(), m.DiskErrors.Value(), m.DiskRetries.Value())
	}
	c.Put(key, samplePayload())
	if got, ok := c.Get(key); !ok || got.Name != "gcc/PI" {
		t.Fatalf("round trip over a legacy directory = %+v, %v", got, ok)
	}
	if got, err := os.ReadFile(legacy); err != nil || string(got) != string(body) {
		t.Errorf("legacy entry changed: %q, %v", got, err)
	}
	if vols, _ := filepath.Glob(filepath.Join(dir, "pack-*.dat")); len(vols) == 0 {
		t.Error("no pack volume written next to the legacy entries")
	}
}

func TestCacheNilSafety(t *testing.T) {
	var c *Cache[payload]
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache reported a hit")
	}
	c.Put("k", samplePayload()) // must not panic
	if c.Len() != 0 {
		t.Error("nil cache has entries")
	}
}

func TestCacheRequiresDir(t *testing.T) {
	if _, err := NewCacheWith[payload](CacheConfig{}, nil); err == nil {
		t.Fatal("a cache without a directory opened")
	}
}

func TestCacheMetricsCounters(t *testing.T) {
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c, err := NewCacheWith[payload](CacheConfig{Dir: t.TempDir()}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Get("k")
	c.Put("k", samplePayload())
	c.Get("k")
	if m.Misses.Value() != 1 || m.Hits.Value() != 1 || m.Stores.Value() != 1 {
		t.Errorf("counters hits=%d misses=%d stores=%d, want 1/1/1",
			m.Hits.Value(), m.Misses.Value(), m.Stores.Value())
	}
	if m.Bytes.Value() <= 0 {
		t.Error("stored-bytes counter not advanced")
	}
}

// flakyFaults injects failures for the first n attempts of each disk
// operation, then heals — the shape of a transient I/O blip.
type flakyFaults struct {
	failures int
	calls    int
}

func (f *flakyFaults) hook(op string) error {
	f.calls++
	if f.failures > 0 {
		f.failures--
		return errors.New("injected " + op + " fault")
	}
	return nil
}

func shrinkBackoff(t *testing.T) {
	t.Helper()
	old := retryBackoff
	retryBackoff = 10 * time.Microsecond
	t.Cleanup(func() { retryBackoff = old })
}

func TestCacheRetriesTransientWriteFault(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c, err := NewCacheWith[payload](CacheConfig{Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	f := &flakyFaults{failures: diskAttempts - 1}
	c.SetFaultHook(f.hook)
	c.Put("abc", samplePayload())

	// The entry must have survived to disk despite the first attempts
	// failing: a fresh cache over the same dir serves it.
	c2, err := NewCacheWith[payload](CacheConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, ok := c2.Get("abc"); !ok {
		t.Fatal("entry lost despite retry budget covering the fault")
	}
	if got := m.DiskRetries.Value(); got != diskAttempts-1 {
		t.Errorf("DiskRetries = %d, want %d", got, diskAttempts-1)
	}
	if got := m.DiskErrors.Value(); got != 0 {
		t.Errorf("DiskErrors = %d, want 0", got)
	}
}

func TestCacheExhaustedRetriesDegradeGracefully(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c, err := NewCacheWith[payload](CacheConfig{Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetFaultHook(func(op string) error { return errors.New("disk on fire") })
	c.Put("abc", samplePayload()) // must not panic or error out

	if got := m.DiskErrors.Value(); got != 1 {
		t.Errorf("DiskErrors = %d, want 1", got)
	}
	// The entry was never stored: once the disk heals it is a clean miss,
	// which the batch answers by recomputing.
	c.SetFaultHook(nil)
	if _, ok := c.Get("abc"); ok {
		t.Fatal("phantom hit after an abandoned write")
	}
	// A fresh process sees nothing on disk, and its own faulty reads
	// degrade to misses rather than failures.
	c2, err := NewCacheWith[payload](CacheConfig{Dir: dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetFaultHook(func(op string) error { return errors.New("disk still on fire") })
	if _, ok := c2.Get("abc"); ok {
		t.Fatal("hit served through a permanently failing disk")
	}
}

func TestCacheMissingEntryIsNotRetried(t *testing.T) {
	shrinkBackoff(t)
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	c, err := NewCacheWith[payload](CacheConfig{Dir: dir}, m)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("nothere"); ok {
		t.Fatal("phantom hit")
	}
	if got := m.DiskRetries.Value(); got != 0 {
		t.Errorf("a plain miss burned %d retries, want 0", got)
	}
}

func TestCacheIngestHook(t *testing.T) {
	c, err := NewCacheWith[payload](CacheConfig{Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Store() == nil {
		t.Fatal("disk-backed cache reports a nil store")
	}
	var gotKey string
	var gotVal payload
	calls := 0
	c.SetIngest(func(key string, v payload) {
		gotKey, gotVal, calls = key, v, calls+1
	})
	want := samplePayload()
	c.Put("k-ingest", want)
	if calls != 1 || gotKey != "k-ingest" || gotVal.Name != want.Name {
		t.Fatalf("ingest hook: calls=%d key=%q val=%+v", calls, gotKey, gotVal)
	}
	// The hook observes every Put, including overwrites.
	c.Put("k-ingest", want)
	if calls != 2 {
		t.Fatalf("ingest hook after overwrite: calls=%d, want 2", calls)
	}
	// Nil-safety: a nil cache accepts both without dereferencing.
	var nilCache *Cache[payload]
	nilCache.SetIngest(func(string, payload) {})
	if nilCache.Store() != nil {
		t.Fatal("nil cache returned a store")
	}
}
