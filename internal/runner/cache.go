package runner

// Content-addressed run cache: batch engines use it to skip simulations
// whose exact configuration has already been executed. The cache stores
// the JSON encoding of the result under a caller-supplied key (usually
// sim.CacheKey's SHA-256) in a persistent pack store. Entries are decoded
// on every hit so callers always receive a private copy — cached results
// can be mutated freely without poisoning later hits.
//
// The store is the pack store (internal/packstore): entries are appended
// as CRC-checked needles into bounded pack volumes, append-only. It is
// crash-safe and self-healing: a corrupted or undecodable entry reads as
// a miss, so the batch recomputes it instead of failing, and the
// recompute's Put supersedes the bad entry. Files in the
// directory that are not pack volumes — such as the per-entry <key>.json
// files older builds wrote — are ignored, so a directory from such a
// build opens as an empty store and its results recompute. Transient
// disk I/O failures are retried with exponential backoff before the
// cache degrades to a miss (reads) or drops the entry (writes); an
// injectable per-op fault hook (SetFaultHook) lets cmd/serve's chaos mode
// prove that degradation stays graceful under probabilistic disk failure.
//
// There is no in-memory layer: for a 1.3 KB result a pack Get (a map
// lookup and one pread) is about 1 µs of a 20 µs hit, the rest is the
// JSON decode every hit pays, so a memory copy of the bytes saved about
// 5% of a hit (DESIGN.md, "One store per cache directory").

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/packstore"
	"repro/internal/telemetry"
)

// Disk retry policy: diskAttempts tries per operation, sleeping
// retryBackoff << attempt between tries. The backoff base is a variable
// so tests can shrink it.
const diskAttempts = 3

var retryBackoff = 2 * time.Millisecond

// CacheConfig locates the cache.
type CacheConfig struct {
	// Dir is the pack store directory, created if missing.
	Dir string
}

// Cache memoizes results of type R by content-hash key. A nil *Cache is
// valid and never hits, so call sites need no conditionals. All methods
// are safe for concurrent use by a worker pool.
type Cache[R any] struct {
	store   *packstore.Store
	metrics *telemetry.CacheMetrics
	ingest  func(key string, v R) // optional Put observer (run catalog)
}

// NewCacheWith opens the run cache over the pack store in cfg.Dir;
// entries there survive across processes. metrics, when non-nil,
// receives hit/miss/store/byte and pack counters.
func NewCacheWith[R any](cfg CacheConfig, metrics *telemetry.CacheMetrics) (*Cache[R], error) {
	if cfg.Dir == "" {
		return nil, errors.New("runner: cache: no directory")
	}
	s, err := packstore.Open(cfg.Dir, packstore.Options{Metrics: metrics})
	if err != nil {
		return nil, fmt.Errorf("runner: cache: %w", err)
	}
	return &Cache[R]{store: s, metrics: metrics}, nil
}

// SetFaultHook installs a fault injector called before every disk
// operation attempt ("read", "write"); a non-nil return counts
// as that attempt's I/O failure and is retried like a real one. Used by
// chaos testing; nil disables injection. Not safe to call concurrently
// with cache use.
func (c *Cache[R]) SetFaultHook(f func(op string) error) {
	if c != nil {
		c.store.SetFaultHook(f)
	}
}

// SetIngest installs an observer called after every Put that reaches
// the store — the hook the run catalog uses to index completed results
// as they are stored. Not safe to call concurrently with cache use; nil
// disables.
func (c *Cache[R]) SetIngest(f func(key string, v R)) {
	if c != nil {
		c.ingest = f
	}
}

// Store exposes the pack store so derived state — the run catalog — can
// rebuild itself from a store scan. Nil for a nil cache.
func (c *Cache[R]) Store() *packstore.Store {
	if c == nil {
		return nil
	}
	return c.store
}

// Close releases the pack store. Nil-safe.
func (c *Cache[R]) Close() error {
	if c == nil {
		return nil
	}
	return c.store.Close()
}

// withRetry runs op up to diskAttempts times with exponential backoff,
// counting retries and terminal failures in the metrics bundle. A
// fs.ErrNotExist from op is returned immediately: a missing entry is a
// plain miss, not a transient fault.
func (c *Cache[R]) withRetry(op func() error) error {
	var err error
	for attempt := 0; attempt < diskAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(ExpBackoff(attempt-1, retryBackoff, 0))
			c.count(func(m *telemetry.CacheMetrics) { m.DiskRetries.Inc() })
		}
		if err = op(); err == nil || errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	c.count(func(m *telemetry.CacheMetrics) { m.DiskErrors.Inc() })
	return err
}

// Get returns the cached result for key, if present and intact.
func (c *Cache[R]) Get(key string) (R, bool) {
	var zero R
	if c == nil {
		return zero, false
	}
	var data []byte
	err := c.withRetry(func() (err error) {
		data, err = c.store.Get(key)
		return err
	})
	var v R
	if err == nil {
		// An undecodable entry (its CRC holds but the bytes are not an R,
		// e.g. written by a build with another result type) is a miss too;
		// the recompute's Put supersedes it.
		err = json.Unmarshal(data, &v)
	}
	if err != nil {
		c.count(func(m *telemetry.CacheMetrics) { m.Misses.Inc() })
		return zero, false
	}
	c.count(func(m *telemetry.CacheMetrics) { m.Hits.Inc() })
	return v, true
}

// Put stores v under key. Encoding or disk errors are swallowed: a cache
// that cannot store is a cache that misses, never a batch failure.
func (c *Cache[R]) Put(key string, v R) {
	if c == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	c.count(func(m *telemetry.CacheMetrics) {
		m.Stores.Inc()
		m.Bytes.Add(int64(len(data)))
	})
	// CRC-framed append, published to readers only once the needle index
	// points at it, so concurrent readers and future processes only ever
	// see complete entries. Errors after the retry budget are swallowed by
	// design — see the function comment — and the entry is not ingested:
	// the catalog lists only what the cache can serve.
	if c.withRetry(func() error { return c.store.Put(key, data) }) == nil && c.ingest != nil {
		c.ingest(key, v)
	}
}

// Len returns the number of stored entries.
func (c *Cache[R]) Len() int {
	if c == nil {
		return 0
	}
	return c.store.Len()
}

func (c *Cache[R]) count(f func(*telemetry.CacheMetrics)) {
	if c.metrics != nil {
		f(c.metrics)
	}
}
