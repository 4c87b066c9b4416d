package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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

// TestOpenStoreReconcilesCatalog: a crash between a Put's pack append and
// its catalog append leaves a stored result that a non-empty catalog
// lacks. The next OpenStore catalogs it, and an open that is already in
// sync reads no payload (a corrupted needle would be quarantined if it
// did).
func TestOpenStoreReconcilesCatalog(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Cache.Put("k1", &sim.Result{Benchmark: "gcc", Policy: "PI", IPC: 0.9})
	orphan, err := json.Marshal(&sim.Result{Benchmark: "art", Policy: "PID", IPC: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Cache.Store().Put("k2", orphan); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := st.Catalog.Get("k2")
	if !ok || rec.Bench != "art" || rec.Policy != "PID" {
		t.Fatalf("reopened catalog row for the orphaned result = %+v, %v", rec, ok)
	}
	if st.Catalog.Len() != 2 {
		t.Errorf("catalog Len = %d, want 2", st.Catalog.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	vol := filepath.Join(dir, "pack-000000.dat")
	data, err := os.ReadFile(vol)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // k2's payload, the last needle
	if err := os.WriteFile(vol, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	st, err = OpenStore(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if n := telemetry.NewCacheMetrics(reg).PackAuditFailures.Value(); n != 0 {
		t.Errorf("an in-sync open read %d corrupt payloads, want none read", n)
	}
	if n := telemetry.NewIndexMetrics(reg).Rebuilds.Value(); n != 0 {
		t.Errorf("an in-sync open recovered results %d times", n)
	}
}
