package runner

// Content-addressed run cache: batch engines use it to skip simulations
// whose exact configuration has already been executed. The cache stores
// the JSON encoding of the result under a caller-supplied key (usually
// sim.CacheKey's SHA-256), in a size-capped in-memory LRU layer and
// optionally in a persistent pack store. Entries are decoded on every hit
// so callers always receive a private copy — cached results can be
// mutated freely without poisoning later hits.
//
// The persistent layer is the pack store (internal/packstore): entries
// are appended as CRC-checked needles into bounded pack volumes. It is
// crash-safe and self-healing: a corrupted or undecodable entry is
// dropped and treated as a miss, so the batch recomputes it instead of
// failing. Files in the directory that are not pack volumes — such as
// the per-entry <key>.json files older builds wrote — are ignored, so a
// directory from such a build opens as an empty store and its results
// recompute. Transient disk I/O failures are retried with exponential
// backoff before the cache degrades to a miss (reads) or drops the store
// (writes); an injectable per-op fault hook (SetFaultHook) lets
// cmd/serve's chaos mode prove that degradation stays graceful under
// probabilistic disk failure.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"repro/internal/packstore"
	"repro/internal/telemetry"
)

// Disk retry policy: diskAttempts tries per operation, sleeping
// retryBackoff << attempt between tries. The backoff base is a variable
// so tests can shrink it.
const diskAttempts = 3

var retryBackoff = 2 * time.Millisecond

// DefaultMemBytes caps the in-memory layer when CacheConfig.MemBytes is
// zero. Entries are a few hundred bytes of JSON each, so this holds the
// full 18×13 scenario matrix many times over while keeping a
// million-entry disk store from pulling the whole volume into RAM.
const DefaultMemBytes = 256 << 20

// CacheConfig sizes the cache layers.
type CacheConfig struct {
	// Dir is the pack store directory; empty means memory-only.
	Dir string
	// MemBytes caps the in-memory LRU layer: 0 means DefaultMemBytes,
	// negative means unlimited.
	MemBytes int64
}

// Cache memoizes results of type R by content-hash key. A nil *Cache is
// valid and never hits, so call sites need no conditionals. All methods
// are safe for concurrent use by a worker pool.
type Cache[R any] struct {
	mu      sync.Mutex
	mem     *lruCache
	store   *packstore.Store // nil = memory-only
	metrics *telemetry.CacheMetrics
	ingest  func(key string, v R) // optional Put observer (run catalog)
}

// NewCacheWith returns a run cache. cfg.Dir, when non-empty, adds a
// persistent pack store (created if missing); entries there survive
// across processes and warm the in-memory layer on first hit. metrics,
// when non-nil, receives hit/miss/store/byte and pack counters.
func NewCacheWith[R any](cfg CacheConfig, metrics *telemetry.CacheMetrics) (*Cache[R], error) {
	memBytes := cfg.MemBytes
	if memBytes == 0 {
		memBytes = DefaultMemBytes
	}
	c := &Cache[R]{mem: newLRUCache(memBytes), metrics: metrics}
	if cfg.Dir == "" {
		return c, nil
	}
	s, err := packstore.Open(cfg.Dir, packstore.Options{Metrics: metrics})
	if err != nil {
		return nil, fmt.Errorf("runner: cache: %w", err)
	}
	c.store = s
	return c, nil
}

// SetFaultHook installs a fault injector called before every disk
// operation attempt ("read", "write", "rename"); a non-nil return counts
// as that attempt's I/O failure and is retried like a real one. Used by
// chaos testing; nil disables injection. Not safe to call concurrently
// with cache use.
func (c *Cache[R]) SetFaultHook(f func(op string) error) {
	if c != nil && c.store != nil {
		c.store.SetFaultHook(f)
	}
}

// SetIngest installs an observer called after every successful Put —
// the hook the run catalog uses to index completed results as they are
// stored. Not safe to call concurrently with cache use; nil disables.
func (c *Cache[R]) SetIngest(f func(key string, v R)) {
	if c != nil {
		c.ingest = f
	}
}

// Store exposes the pack store (nil when memory-only) so derived state
// — the run catalog — can rebuild itself from a store scan.
func (c *Cache[R]) Store() *packstore.Store {
	if c == nil {
		return nil
	}
	return c.store
}

// Close releases the persistent layer (waits for pack compaction to
// settle). Nil-safe; memory-only caches have nothing to release.
func (c *Cache[R]) Close() error {
	if c == nil || c.store == nil {
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
	c.mu.Lock()
	data, ok := c.mem.get(key)
	c.mu.Unlock()
	fromDisk := false
	if !ok && c.store != nil {
		err := c.withRetry(func() error {
			b, err := c.store.Get(key)
			if err != nil {
				return err
			}
			data = b
			return nil
		})
		if err == nil {
			ok, fromDisk = true, true
		}
	}
	if !ok {
		c.count(func(m *telemetry.CacheMetrics) { m.Misses.Inc() })
		return zero, false
	}
	var v R
	if err := json.Unmarshal(data, &v); err != nil {
		// Undecodable entry (its CRC holds but the bytes are not an R,
		// e.g. written by a build with another result type): drop it
		// everywhere and recompute.
		c.mu.Lock()
		c.mem.remove(key)
		c.mu.Unlock()
		if c.store != nil {
			_ = c.store.Delete(key)
		}
		c.count(func(m *telemetry.CacheMetrics) { m.Misses.Inc() })
		return zero, false
	}
	if fromDisk {
		c.storeMem(key, data)
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
	c.storeMem(key, data)
	c.count(func(m *telemetry.CacheMetrics) {
		m.Stores.Inc()
		m.Bytes.Add(int64(len(data)))
	})
	if c.ingest != nil {
		c.ingest(key, v)
	}
	if c.store == nil {
		return
	}
	// CRC-framed append, published to readers only once the needle index
	// points at it, so concurrent readers and future processes only ever
	// see complete entries. Errors after the retry budget are swallowed by
	// design — see the function comment.
	_ = c.withRetry(func() error { return c.store.Put(key, data) })
}

// storeMem inserts into the LRU layer, counting evictions.
func (c *Cache[R]) storeMem(key string, data []byte) {
	c.mu.Lock()
	evicted := c.mem.put(key, data)
	c.mu.Unlock()
	if evicted > 0 {
		c.count(func(m *telemetry.CacheMetrics) { m.MemEvictions.Add(int64(evicted)) })
	}
}

// Len returns the number of in-memory entries.
func (c *Cache[R]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mem.len()
}

func (c *Cache[R]) count(f func(*telemetry.CacheMetrics)) {
	if c.metrics != nil {
		f(c.metrics)
	}
}

// CachedJob wraps job so its result is served from (and stored into) the
// cache under key. An empty key, or a nil cache, passes through.
func CachedJob[R any](c *Cache[R], key string, job Job[R]) Job[R] {
	if c == nil || key == "" {
		return job
	}
	return func(ctx context.Context) (R, error) {
		if v, ok := c.Get(key); ok {
			return v, nil
		}
		v, err := job(ctx)
		if err == nil {
			c.Put(key, v)
		}
		return v, err
	}
}
