package runindex

import (
	"testing"

	"repro/internal/telemetry"
)

// Catalog ingest and query sit on the result hot path of every batch and
// sweep; like the simulator hot loop and the cluster dispatch path they
// are gated at zero allocations per operation in the steady state
// (capacity reserved, bench/policy strings already interned, log frames
// encoded into a reused buffer and written with WriteAt).

func TestZeroAllocIndexIngest(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewIndexMetrics(reg)
	const warm, measured = 4096, 1000
	c, err := Open(t.TempDir(), Options{Capacity: warm + measured + 1024, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Pre-generate every record so the measured loop only ingests, and
	// warm up so every bench/policy string is interned.
	recs := make([]Record, warm+measured)
	for i := range recs {
		recs[i] = testRecord(i)
	}
	for i := 0; i < warm; i++ {
		if !c.Ingest(recs[i]) {
			t.Fatalf("warmup ingest %d failed", i)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(measured-1, func() {
		if !c.Ingest(recs[next]) {
			panic("measured ingest failed")
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("catalog ingest allocates %.1f per record, want 0", allocs)
	}
}

func TestZeroAllocIndexLookup(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewIndexMetrics(reg)
	c, err := Open("", Options{Capacity: 8192, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	for i := 0; i < n; i++ {
		c.Ingest(testRecord(i))
	}
	key := testRecord(n / 2).Key
	q := Query{Limit: 1 << 30}
	q.Dims[DimTrigger] = RangeFilter{Lo: 110, Hi: 110.5, Set: true}
	visit := func(*Record) bool { return true }

	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := c.Get(key); !ok {
			panic("lookup missed a cataloged key")
		}
		if c.Execute(&q, visit) == 0 {
			panic("range query matched nothing")
		}
	})
	if allocs != 0 {
		t.Errorf("catalog lookup+range query allocates %.1f per op, want 0", allocs)
	}
}
