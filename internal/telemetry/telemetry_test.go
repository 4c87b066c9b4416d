package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterHandlesSumAcrossStripes(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "test")
	h1, h2 := c.Handle(), c.Handle()
	for i := 0; i < 100; i++ {
		h1.Inc()
	}
	h2.Add(25)
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 130 {
		t.Fatalf("Value = %d, want 130", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("same_total", "one")
	b := r.Counter("same_total", "two")
	if a != b {
		t.Fatal("re-registering a counter name returned a different metric")
	}
	g1 := r.Gauge("g", "")
	g2 := r.Gauge("g", "")
	if g1 != g2 {
		t.Fatal("re-registering a gauge name returned a different metric")
	}
	h1 := r.Histogram("h", "", []float64{1, 2})
	h2 := r.Histogram("h", "", []float64{9})
	if h1 != h2 {
		t.Fatal("re-registering a histogram name returned a different metric")
	}
	if got := len(h2.bounds); got != 2 {
		t.Fatalf("histogram bounds changed on re-registration: %d", got)
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("registering a gauge over a counter name did not panic")
		}
	}()
	r.Gauge("dup", "")
}

func TestRegistryInvalidNamePanics(t *testing.T) {
	for _, name := range []string{"", "1abc", "has space", "has-dash"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", name)
				}
			}()
			NewRegistry().Counter(name, "")
		}()
	}
}

func TestGaugeSetAndValue(t *testing.T) {
	g := NewRegistry().Gauge("temp", "")
	g.Set(110.25)
	if got := g.Value(); got != 110.25 {
		t.Fatalf("Value = %g", got)
	}
	g.Set(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("Value = %g", got)
	}
}

func TestHistogramBucketsSumCount(t *testing.T) {
	h := NewRegistry().Histogram("lat", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Fatalf("Count = %d", got)
	}
	if got := h.Sum(); math.Abs(got-556.5) > 1e-9 {
		t.Fatalf("Sum = %g", got)
	}
	// le semantics: 0.5 and 1 land in bucket <=1; 5 in <=10; 50 in <=100;
	// 500 overflows to +Inf.
	wantCounts := []int64{2, 1, 1, 1}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Fatalf("bucket %d holds %d, want %d", i, got, want)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("sim_cycles_total", "Simulated clock cycles.")
	c.Add(42)
	r.Gauge("sim_hottest_temp_celsius", "Hot.").Set(111.25)
	h := r.Histogram("run_seconds", "Wall.", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(20)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE sim_cycles_total counter",
		"sim_cycles_total 42",
		"# TYPE sim_hottest_temp_celsius gauge",
		"sim_hottest_temp_celsius 111.25",
		"# TYPE run_seconds histogram",
		`run_seconds_bucket{le="1"} 1`,
		`run_seconds_bucket{le="10"} 1`,
		`run_seconds_bucket{le="+Inf"} 2`,
		"run_seconds_sum 20.5",
		"run_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// Deterministic ordering: run_seconds sorts before sim_*.
	if strings.Index(out, "run_seconds") > strings.Index(out, "sim_cycles_total") {
		t.Error("exposition not sorted by metric name")
	}
}

func TestConcurrentCountersAndHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_hist", "", []float64{0.5})
	const workers, per = 8, 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hd := c.Handle()
			for i := 0; i < per; i++ {
				hd.Inc()
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
	if got := h.Sum(); got != workers*per {
		t.Fatalf("histogram sum = %g, want %d", got, workers*per)
	}
}

// TestZeroAllocHotPath is part of the repository's allocation gate
// (`go test -run TestZeroAlloc`): the pre-registered handle paths must not
// allocate.
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	h := r.Counter("hot_total", "").Handle()
	g := r.Gauge("hot_gauge", "")
	hist := r.Histogram("hot_hist", "", ThermalStepBuckets)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1000; i++ {
			h.Inc()
			h.Add(2)
			g.Set(float64(i))
			hist.Observe(float64(i) * 1e-9)
		}
	})
	if allocs > 0 {
		t.Fatalf("metric hot path allocates %.2f per run; want 0", allocs)
	}
}

func TestBundlesRegisterOnce(t *testing.T) {
	r := NewRegistry()
	a := NewSimMetrics(r)
	b := NewSimMetrics(r)
	a.Cycles.Add(10)
	b.Cycles.Add(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "sim_cycles_total 15") {
		t.Fatalf("bundle handles did not share one counter:\n%s", sb.String())
	}
	rm := NewRunnerMetrics(r)
	rm.RunsStarted.Inc()
	if rm.RunsStarted.Value() != 1 {
		t.Fatal("runner metrics broken")
	}
}

func TestClusterMetricsPerWorkerFamilies(t *testing.T) {
	r := NewRegistry()
	m := NewClusterMetrics(r, 3)
	if len(m.Workers) != 3 {
		t.Fatalf("worker bundles = %d, want 3", len(m.Workers))
	}
	m.Dispatched.Inc()
	m.Workers[2].Dispatched.Inc()
	m.Workers[2].Up.Set(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"cluster_dispatched_total 1",
		"cluster_worker_2_dispatched_total 1",
		"cluster_worker_2_up 1",
		"cluster_worker_0_dispatched_total 0",
		"cluster_dispatch_seconds_bucket",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Re-registration shares the same underlying metrics.
	again := NewClusterMetrics(r, 3)
	again.Dispatched.Inc()
	if m.Dispatched.Value() != 2 {
		t.Error("cluster bundles did not share one counter")
	}
}

// TestZeroAllocClusterMetricsHandles is part of the allocation gate: the
// cluster dispatch path increments these handles once per run, and the
// routing + bookkeeping hot path must stay allocation-free.
func TestZeroAllocClusterMetricsHandles(t *testing.T) {
	r := NewRegistry()
	m := NewClusterMetrics(r, 2)
	w := m.Workers[1]
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 100; i++ {
			m.Dispatched.Inc()
			m.Retried.Inc()
			m.Requeued.Inc()
			m.Hedges.Inc()
			m.AffinityHits.Inc()
			m.AffinityMisses.Inc()
			m.WorkersUp.Set(float64(i))
			m.DispatchSeconds.Observe(float64(i) * 1e-3)
			w.Dispatched.Inc()
			w.Up.Set(1)
			w.InFlight.Set(float64(i))
		}
	})
	if allocs > 0 {
		t.Fatalf("cluster metrics hot path allocates %.2f per run; want 0", allocs)
	}
}
