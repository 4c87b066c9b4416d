// Package telemetry is the observability layer for the simulator, the DTM
// stack and the experiment engine: a dependency-free metrics registry
// (counters, gauges, fixed-bucket histograms) whose hot-path API is
// allocation-free — pre-registered handles over cache-line-padded sharded
// atomics, no map lookups or locks on the increment path — plus a
// structured per-run trace recorder (trace.go) that ring-buffers controller
// and thermal samples and flushes them as JSONL.
//
// The registry is what cmd/serve exposes as Prometheus text at /metrics and
// what the -metrics flag on the batch tools dumps at exit; SimMetrics and
// RunnerMetrics (bundles.go) are the pre-registered handle sets the sim hot
// loop and the experiment engine increment.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// numShards is the stripe count for counters. Handle() deals stripes
// round-robin, so concurrent simulations land on distinct cache lines and
// the per-cycle increment is an uncontended atomic add.
const numShards = 64

// slot is one cache-line-padded counter stripe.
type slot struct {
	v atomic.Int64
	_ [56]byte // pad to a 64-byte cache line
}

// Counter is a monotonically increasing metric. Increment through a
// pre-registered Handle on hot paths; the convenience Inc/Add on the
// Counter itself share stripe 0 and are meant for low-frequency events.
type Counter struct {
	name, help string
	shards     [numShards]slot
	next       atomic.Uint32
}

// Handle returns a new increment handle bound to one stripe. Each
// long-lived incrementer (one simulation, one worker goroutine) should hold
// its own handle.
func (c *Counter) Handle() *CounterHandle {
	i := c.next.Add(1) - 1
	return &CounterHandle{s: &c.shards[i%numShards]}
}

// Inc adds 1 on the shared stripe (low-frequency callers only).
func (c *Counter) Inc() { c.shards[0].v.Add(1) }

// Add adds n (must be non-negative) on the shared stripe.
func (c *Counter) Add(n int64) { c.shards[0].v.Add(n) }

// Value sums the stripes.
func (c *Counter) Value() int64 {
	var sum int64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// CounterHandle is a pre-registered, allocation-free increment path bound
// to one stripe of a Counter.
type CounterHandle struct{ s *slot }

// Inc adds 1.
func (h *CounterHandle) Inc() { h.s.v.Add(1) }

// Add adds n; n must be non-negative to keep the counter monotone.
func (h *CounterHandle) Add(n int64) { h.s.v.Add(n) }

// Gauge is a last-writer-wins float64 metric (current temperature, queue
// depth). Set and Value are single atomic word operations.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value loads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets (Prometheus
// le semantics: bucket i counts v <= bound i, with an implicit +Inf
// bucket). Observe is lock- and allocation-free: a linear scan over the
// (small, fixed) bound set plus atomic adds.
type Histogram struct {
	name, help string
	bounds     []float64      // ascending upper bounds, +Inf implicit
	counts     []atomic.Int64 // len(bounds)+1, non-cumulative
	count      atomic.Int64
	sumBits    atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		s := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Registry owns a flat namespace of metrics. Registration (Counter, Gauge,
// Histogram) is get-or-create and safe for concurrent use; re-registering
// a name with the same type returns the existing metric, so per-run metric
// bundles can be built against a shared registry without coordination.
// Registration takes a lock; the returned metrics never do.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// validName enforces the Prometheus metric-name charset; telemetry names
// are static configuration, so violations panic.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) checkName(name string, taken ...bool) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, t := range taken {
		if t {
			panic(fmt.Sprintf("telemetry: metric %q already registered with a different type", name))
		}
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	_, g := r.gauges[name]
	_, h := r.hists[name]
	r.checkName(name, g, h)
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	_, c := r.counters[name]
	_, h := r.hists[name]
	r.checkName(name, c, h)
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use with the
// given ascending upper bounds (+Inf is implicit). Bounds are fixed at
// first registration; later calls ignore the argument.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	_, c := r.counters[name]
	_, g := r.gauges[name]
	r.checkName(name, c, g)
	if len(bounds) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if !(bounds[i] > bounds[i-1]) {
			panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	r.hists[name] = h
	return h
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, sorted by name for deterministic output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.hists {
		names = append(names, n)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	sort.Strings(names)
	for _, n := range names {
		var err error
		switch {
		case counters[n] != nil:
			c := counters[n]
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", n, c.help, n, n, c.Value())
		case gauges[n] != nil:
			g := gauges[n]
			_, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", n, g.help, n, n, g.Value())
		case hists[n] != nil:
			h := hists[n]
			if _, err = fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", n, h.help, n); err != nil {
				return err
			}
			var cum int64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatBound(b), cum); err != nil {
					return err
				}
			}
			_, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
				n, h.Count(), n, h.Sum(), n, h.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus clients expect.
func formatBound(b float64) string { return fmt.Sprintf("%g", b) }
