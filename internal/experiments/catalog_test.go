package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/packstore"
	"repro/internal/runindex"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func testCatalog(t *testing.T) *runindex.Catalog {
	t.Helper()
	cat, err := runindex.Open(t.TempDir(), runindex.Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { cat.Close() })
	// Two benchmarks; gcc has a dominated point (PID: lower IPC AND more
	// emergency than PI) that must stay off the pareto frontier.
	recs := []runindex.Record{
		{Key: "k1", Bench: "gcc", Policy: "", IPC: 1.00, EmergFrac: 0.10, AvgPower: 40},
		{Key: "k2", Bench: "gcc", Policy: "PI", Trigger: 111.2, Interval: 1000, IPC: 0.90, EmergFrac: 0.01, AvgPower: 35},
		{Key: "k3", Bench: "gcc", Policy: "PID", Trigger: 111.2, Interval: 1000, IPC: 0.85, EmergFrac: 0.02, AvgPower: 34},
		{Key: "k4", Bench: "gcc", Policy: "toggle1", Trigger: 110.3, Interval: 1000, IPC: 0.70, EmergFrac: 0.00, AvgPower: 30},
		{Key: "k5", Bench: "art", Policy: "PI", Trigger: 111.2, Interval: 2000, IPC: 0.60, EmergFrac: 0.00, AvgPower: 20},
		{Key: "k6", Bench: "gcc", Policy: "PI", Trigger: 111.0, Interval: 2000, IPC: 0.88, EmergFrac: 0.01, AvgPower: 34},
	}
	for _, r := range recs {
		if !cat.Ingest(r) {
			t.Fatalf("ingest %s: duplicate", r.Key)
		}
	}
	return cat
}

func TestCatalogSummary(t *testing.T) {
	out := CatalogSummary(testCatalog(t)).String()
	for _, want := range []string{"art/PI", "gcc/none", "gcc/PI", "gcc/PID", "gcc/toggle1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing group %q:\n%s", want, out)
		}
	}
	// gcc/PI groups two runs with mean IPC (0.90+0.88)/2.
	if !strings.Contains(out, "0.8900") {
		t.Errorf("summary missing gcc/PI mean IPC 0.8900:\n%s", out)
	}
}

func TestCatalogPareto(t *testing.T) {
	out := CatalogPareto(testCatalog(t)).String()
	if strings.Contains(out, "PID") {
		t.Errorf("dominated PID point on frontier:\n%s", out)
	}
	// The safest (toggle1), the knee (PI @ 0.90) and the fastest
	// (uncontrolled) gcc points all belong; k6 (0.88 IPC at the same
	// residency as k2's 0.90) does not.
	for _, want := range []string{"toggle1", "none", "art"} {
		if !strings.Contains(out, want) {
			t.Errorf("frontier missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "0.8800") {
		t.Errorf("dominated gcc/PI (IPC 0.88) on frontier:\n%s", out)
	}
}

func TestCatalogSensitivity(t *testing.T) {
	out := CatalogSensitivity(testCatalog(t), runindex.DimInterval).String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + rule + three interval values (0, 1000, 2000), ascending.
	if len(lines) != 5 {
		t.Fatalf("want 5 lines, got %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[2], "0 ") || !strings.HasPrefix(lines[3], "1000") || !strings.HasPrefix(lines[4], "2000") {
		t.Errorf("interval buckets not ascending:\n%s", out)
	}
	if _, err := runindex.ParseDim("interval"); err != nil {
		t.Fatalf("ParseDim: %v", err)
	}
}

// TestOpenStoreMigratesParentLayout: a directory an older build wrote —
// results as bare JSON needles, their rows in catalog/catalog.log — opens
// with a row for every stored result. The results are stored again
// framed, so the second open reads no payload: with every framed result's
// JSON corrupted in place, it still lists every row and quarantines
// nothing. The log's multicore row is not migrated, and the log is left
// as it was.
func TestOpenStoreMigratesParentLayout(t *testing.T) {
	dir := t.TempDir()
	store, err := packstore.Open(dir, packstore.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string]*sim.Result{
		"k1": {Benchmark: "gcc", Policy: "PI", IPC: 0.9},
		"k2": {Benchmark: "art", Policy: "PID", IPC: 0.6},
		"k3": {Benchmark: "gcc", Policy: "toggle1", IPC: 0.7},
	}
	blobs := map[string][]byte{}
	for _, key := range []string{"k1", "k2", "k3"} {
		if blobs[key], err = json.Marshal(results[key]); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, blobs[key]); err != nil {
			t.Fatal(err)
		}
	}
	store.Close()
	logPath := filepath.Join(dir, "catalog", "catalog.log")
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		t.Fatal(err)
	}
	// The older build's log frame is the row frame, laid end to end.
	log := runindex.Frame(runindex.Record{Key: "mc", Bench: "hotneighbor", Policy: "PID", Cores: 4}, nil)
	if err := os.WriteFile(logPath, log, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for key, res := range results {
		if rec, ok := st.Catalog.Get(key); !ok || rec != runindex.FromResult(key, res) {
			t.Errorf("row for %s = %+v, %v", key, rec, ok)
		}
	}
	if _, ok := st.Catalog.Get("mc"); ok || st.Catalog.Len() != 3 {
		t.Errorf("catalog lists %d rows, mc among them %v; want the 3 solo rows", st.Catalog.Len(), ok)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(logPath); err != nil || !bytes.Equal(got, log) {
		t.Errorf("catalog.log changed: %q, %v", got, err)
	}

	vol := filepath.Join(dir, "pack-000000.dat")
	data, err := os.ReadFile(vol)
	if err != nil {
		t.Fatal(err)
	}
	for key, res := range results {
		frame := runindex.Frame(runindex.FromResult(key, res), blobs[key])
		at := bytes.Index(data, frame)
		if at < 0 {
			t.Fatalf("%s not stored again as its row frame and JSON", key)
		}
		data[at+len(frame)-2] ^= 0xff
	}
	if err := os.WriteFile(vol, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err = OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Catalog.Len() != 3 || st.Cache.Len() != 3 {
		t.Errorf("second open: %d rows over %d entries, want 3 over 3 (no payload read)", st.Catalog.Len(), st.Cache.Len())
	}
	if _, ok := st.Cache.Get("k1"); ok {
		t.Error("a corrupted result served")
	}
}

// TestOpenStoreDropsCorruptRow: a flipped byte in one result's row frame
// drops that row alone at the next open, counted as quarantined; the
// cache misses on the entry, and the recompute's Put — one append —
// restores the row.
func TestOpenStoreDropsCorruptRow(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := &sim.Result{Benchmark: "art", Policy: "PID", IPC: 0.6}
	st.Cache.Put("k1", &sim.Result{Benchmark: "gcc", Policy: "PI", IPC: 0.9})
	st.Cache.Put("k2", victim)
	st.Cache.Put("k3", &sim.Result{Benchmark: "gcc", Policy: "toggle1", IPC: 0.7})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	vol := filepath.Join(dir, "pack-000000.dat")
	data, err := os.ReadFile(vol)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(data, runindex.Frame(runindex.FromResult("k2", victim), nil))
	if at < 0 {
		t.Fatal("k2's row frame not found")
	}
	data[at+20] ^= 0xff
	if err := os.WriteFile(vol, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	st, err = OpenStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := st.Catalog.Get("k2"); ok || st.Catalog.Len() != 2 {
		t.Fatalf("catalog lists %d rows, k2 among them %v; want k1 and k3", st.Catalog.Len(), ok)
	}
	if n := telemetry.NewIndexMetrics(reg).Quarantined.Value(); n != 1 {
		t.Errorf("runindex_quarantined_total = %d, want 1", n)
	}
	if _, ok := st.Cache.Get("k2"); ok {
		t.Fatal("the entry with the corrupt row served")
	}
	var ops []string
	st.Cache.SetFaultHook(func(op string) error {
		ops = append(ops, op)
		return nil
	})
	st.Cache.Put("k2", victim)
	if fmt.Sprint(ops) != "[write]" {
		t.Errorf("the recompute's Put made disk operations %q, want one write", ops)
	}
	if rec, ok := st.Catalog.Get("k2"); !ok || rec != runindex.FromResult("k2", victim) {
		t.Errorf("recomputed row = %+v, %v", rec, ok)
	}
}
