package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/packstore"
	"repro/internal/runindex"
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
// as a miss, and a recompute's Put supersedes it.
// TestCachePackCorruptedEntryRecovers covers the CRC half.
func TestCacheCorruptedEntryRecovers(t *testing.T) {
	store := openStore(t, nil)
	c := NewCache[payload](store, nil, nil)
	if err := store.Put("deadbeef", []byte("{torn write")); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("deadbeef"); ok {
		t.Fatal("undecodable entry served as a hit")
	}
	c.Put("deadbeef", samplePayload())
	if got, ok := c.Get("deadbeef"); !ok || !reflect.DeepEqual(got, samplePayload()) {
		t.Errorf("re-stored entry = %+v, %v; want the recomputed payload", got, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d after the re-store, want 1", c.Len())
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

// openStore opens a pack store in a fresh directory, closed with the
// test; scan is handed every needle (packstore.Open).
func openStore(t *testing.T, scan func(key string, head []byte)) *packstore.Store {
	t.Helper()
	s, err := packstore.Open(t.TempDir(), packstore.Options{}, scan)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestCacheRowFrame: a cache with a row function stores each result's
// catalog row at the head of its own needle in one append — one "write"
// on the fault hook, one needle handed to the store's scan function —
// and Get skips the row.
func TestCacheRowFrame(t *testing.T) {
	var heads [][]byte
	store := openStore(t, func(key string, head []byte) {
		heads = append(heads, append([]byte(nil), head...))
	})
	c := NewCache(store, nil, func(key string, v payload) runindex.Record {
		return runindex.Record{Key: key, Bench: v.Name, IPC: v.Score}
	})
	var ops []string
	c.SetFaultHook(func(op string) error {
		ops = append(ops, op)
		return nil
	})
	want := samplePayload()
	c.Put("k-row", want)
	if fmt.Sprint(ops) != "[write]" {
		t.Errorf("Put made disk operations %q, want one write", ops)
	}
	body, _ := json.Marshal(want)
	row := runindex.Record{Key: "k-row", Bench: want.Name, IPC: want.Score}
	if len(heads) != 1 || !bytes.Equal(heads[0], runindex.Frame(row, body)) {
		t.Fatalf("Put appended %d needles; want one holding the row frame and then the JSON", len(heads))
	}
	if got, ok := c.Get("k-row"); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Get past the row frame = %+v, %v", got, ok)
	}
}
