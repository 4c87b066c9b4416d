package runindex

import (
	"fmt"
	"net/url"
	"testing"

	"repro/internal/telemetry"
)

// testRecord fabricates a plausible cataloged run. Triggers spread over
// [109, 113) in 0.04 C steps; policies and benches cycle.
func testRecord(i int) Record {
	benches := [...]string{"hotspot", "hotneighbor", "uniform", "migratory"}
	policies := [...]string{"PI", "PID", "toggle1", "M"}
	return Record{
		Key:      fmt.Sprintf("sha256:%064x", i),
		Bench:    benches[i%len(benches)],
		Policy:   policies[(i/4)%len(policies)],
		Trigger:  109 + float64(i%100)*0.04,
		Kp:       float64(1 + i%5),
		Ki:       0.1 * float64(1+i%7),
		Interval: float64(int(250) << (i % 5)),
		Stride:   float64((i % 3) * 500),
		Cores:    1,
		Insts:    float64(100000 * (1 + i%4)),
		IPC:      1.5 - float64(i%10)*0.05,
		AvgPower: 40 + float64(i%20),
		AvgDuty:  1 - float64(i%10)*0.03,
		Cycles:   uint64(1000000 + i),
	}
}

func TestCatalogIngestAndGet(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		if !c.Ingest(testRecord(i)) {
			t.Fatalf("Ingest(%d) = false", i)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	// Duplicate keys are cheap no-ops.
	if c.Ingest(testRecord(17)) {
		t.Fatal("re-ingest of an existing key returned true")
	}
	if c.Len() != n {
		t.Fatalf("Len after dup = %d, want %d", c.Len(), n)
	}
	for _, i := range []int{0, 1, 999, n - 1} {
		want := testRecord(i)
		got, ok := c.Get(want.Key)
		if !ok || got != want {
			t.Fatalf("Get(%d): ok=%v got=%+v want=%+v", i, ok, got, want)
		}
	}
	if _, ok := c.Get("sha256:absent"); ok {
		t.Fatal("Get on an absent key returned ok")
	}
	if _, ok := c.Get(testRecord(3).Key); !ok {
		t.Fatal("Get missed a cataloged key")
	}
	// Empty keys are rejected, as is a nil catalog.
	if c.Ingest(Record{}) {
		t.Fatal("ingest of an empty key returned true")
	}
	var nilCat *Catalog
	if _, ok := nilCat.Get("x"); ok || nilCat.Ingest(testRecord(0)) || nilCat.Len() != 0 {
		t.Fatal("nil catalog is not inert")
	}
}

// fullScanCount is the reference answer: run the same query with no
// index help.
func fullScanCount(c *Catalog, q *Query) int {
	n := 0
	c.FullScan(q, func(*Record) bool { n++; return true })
	return n
}

func TestCatalogRangeQueries(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 10000
	for i := 0; i < n; i++ {
		c.Ingest(testRecord(i))
	}
	cases := []string{
		"trigger=110:111",
		"trigger=110.2",
		"trigger=109:113&policy=PI",
		"bench=hotspot",
		"policy=toggle1&bench=uniform",
		"interval=250:1000",
		"ki=0.1:0.3&kp=2:4",
		"insts=200000:400001&trigger=109:110",
		"trigger=200:300", // empty band
		"bench=absent",    // unknown interned string
		"",                // unconstrained: full catalog (limit applies)
	}
	for _, raw := range cases {
		vals, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		q, err := ParseQuery(vals)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", raw, err)
		}
		q.Limit = n + 1 // no truncation for the comparison
		want := fullScanCount(c, &q)
		got := 0
		c.Execute(&q, func(rec *Record) bool {
			if q.Bench != "" && rec.Bench != q.Bench {
				t.Fatalf("query %q leaked bench %q", raw, rec.Bench)
			}
			got++
			return true
		})
		if got != want {
			t.Fatalf("query %q: indexed %d rows, full scan %d", raw, got, want)
		}
		if raw == "trigger=110:111" && got == 0 {
			t.Fatal("trigger band query matched nothing; test data broken")
		}
	}
	// Limit is honored.
	lim, _ := ParseQuery(url.Values{"limit": {"7"}})
	if got := c.Run(&lim); got.Count != 7 || len(got.Rows) != 7 {
		t.Fatalf("limit=7 returned %d rows", got.Count)
	}
}

// TestPlannerDrivesByFewestRows checks that the driving filter is the
// one with the fewest estimated rows, not the first one set.
func TestPlannerDrivesByFewestRows(t *testing.T) {
	c, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10000; i++ {
		c.Ingest(testRecord(i))
	}
	for _, tc := range []struct {
		raw  string
		want int
	}{
		{"bench=hotspot&trigger=109:113", driverBench},          // 2500 rows vs the whole catalog
		{"bench=hotspot&trigger=110.2", int(DimTrigger)},        // a point range: 100 rows
		{"policy=PI&bench=hotspot", driverBench},                // 2500 ties policy's 2500: first wins
		{"policy=PI&trigger=109:110&ki=0.1", int(DimKi)},        // 1429 < 2500 and the range's 2500
		{"trigger=109:113", driverNone},                         // covers the catalog: a full scan
		{"trigger=109:113&interval=250:1000", int(DimInterval)}, // 4000 < 10000
		{"", driverNone},
	} {
		q, err := ParseQuery(mustParseQuery(t, tc.raw))
		if err != nil {
			t.Fatal(err)
		}
		want, ok := c.resolve(&q)
		if !ok {
			t.Fatalf("query %q names a string never ingested", tc.raw)
		}
		if got := c.driver(&q, want); got != tc.want {
			t.Errorf("query %q drives by %d, want %d", tc.raw, got, tc.want)
		}
	}
}

func mustParseQuery(t *testing.T, s string) url.Values {
	t.Helper()
	v, err := url.ParseQuery(s)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestParseQueryErrors(t *testing.T) {
	for _, raw := range []string{"trigger=x", "trigger=1:x", "trigger=5:1", "limit=-2", "limit=x"} {
		vals := mustParseQuery(t, raw)
		if _, err := ParseQuery(vals); err == nil {
			t.Errorf("ParseQuery(%q) accepted bad input", raw)
		}
	}
}

func TestParseDim(t *testing.T) {
	for d := Dim(0); d < NumDims; d++ {
		got, err := ParseDim(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDim(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDim("bogus"); err == nil {
		t.Fatal("ParseDim accepted an unknown name")
	}
}

// TestCatalogPersistence: rows stored with Put come back, with the same
// index answers, from the pack store's scan on reopen, and Puts continue
// past them.
func TestCatalogPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		c.Put(testRecord(i))
	}
	if c.Len() != n {
		t.Fatalf("Len = %d after %d Puts", c.Len(), n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	m := telemetry.NewIndexMetrics(telemetry.NewRegistry())
	reopened, err := Open(dir, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != n {
		t.Fatalf("reopened Len = %d, want %d", reopened.Len(), n)
	}
	if q := m.Quarantined.Value(); q != 0 {
		t.Fatalf("clean store quarantined %d frames", q)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		want := testRecord(i)
		got, ok := reopened.Get(want.Key)
		if !ok || got != want {
			t.Fatalf("reopened Get(%d): ok=%v got=%+v", i, ok, got)
		}
	}
	// Index answers survive the round trip.
	q, _ := ParseQuery(mustParseQuery(t, "trigger=110:111&policy=PI&limit=100000"))
	if got, want := reopened.Run(&q).Count, fullScanCount(reopened, &q); got != want || got == 0 {
		t.Fatalf("reopened range query: %d rows, full scan %d", got, want)
	}
	extra := testRecord(n)
	reopened.Put(extra)
	reopened.Close()
	third, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if third.Len() != n+1 {
		t.Fatalf("third open Len = %d, want %d", third.Len(), n+1)
	}
	if _, ok := third.Get(extra.Key); !ok {
		t.Fatal("record stored after reopen was lost")
	}
}

func TestCatalogMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewIndexMetrics(reg)
	c, err := Open(t.TempDir(), Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 100; i++ {
		c.Ingest(testRecord(i))
	}
	c.Ingest(testRecord(0)) // duplicate
	q, _ := ParseQuery(mustParseQuery(t, "trigger=110:111"))
	c.Run(&q)
	if got := m.Ingested.Value(); got != 100 {
		t.Errorf("Ingested = %v, want 100", got)
	}
	if got := m.Duplicates.Value(); got != 1 {
		t.Errorf("Duplicates = %v, want 1", got)
	}
	if got := m.Queries.Value(); got != 1 {
		t.Errorf("Queries = %v, want 1", got)
	}
	if got := m.RangeScans.Value(); got != 1 {
		t.Errorf("RangeScans = %v, want 1", got)
	}
	if got := m.Records.Value(); got != 100 {
		t.Errorf("Records gauge = %v, want 100", got)
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	for i := 0; i < 50; i++ {
		want := testRecord(i)
		buf := appendRecord(nil, &want)
		got, ok := decodeRecord(buf[frameHeader:])
		if !ok || got != want {
			t.Fatalf("codec round trip %d: ok=%v got=%+v", i, ok, got)
		}
	}
	// Truncated, empty-key and wrong-version payloads are rejected.
	r := testRecord(0)
	buf := appendRecord(nil, &r)
	payload := buf[frameHeader:]
	if _, ok := decodeRecord(payload[:len(payload)-1]); ok {
		t.Fatal("decode accepted a truncated payload")
	}
	bad := append([]byte(nil), payload...)
	bad[0] = 99
	if _, ok := decodeRecord(bad); ok {
		t.Fatal("decode accepted a wrong version")
	}
	empty := Record{Key: ""}
	buf2 := appendRecord(nil, &empty)
	if _, ok := decodeRecord(buf2[frameHeader:]); ok {
		t.Fatal("decode accepted an empty key")
	}
}
