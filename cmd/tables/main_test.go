//go:build !race

// Under the race detector a tables run is about 15x slower; the output
// gate runs in the plain test pass only.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

// benchRef reads the tables budget and stdout digest from the benchmark's
// reference file. The file is only read.
func benchRef(t testing.TB) (insts uint64, digest string) {
	t.Helper()
	raw, err := os.ReadFile("../../perfbench/refs.json")
	if err != nil {
		t.Fatal(err)
	}
	var refs struct {
		Tables struct {
			Insts  uint64 `json:"insts"`
			SHA256 string `json:"stdout_sha256"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &refs); err != nil {
		t.Fatalf("refs.json: %v", err)
	}
	if refs.Tables.Insts == 0 || refs.Tables.SHA256 == "" {
		t.Fatal("refs.json: no tables reference")
	}
	return refs.Tables.Insts, refs.Tables.SHA256
}

// TestTablesMatchesBenchRef is the tables output gate: every paper table at
// the benchmark's budget prints exactly the bytes the benchmark checks.
func TestTablesMatchesBenchRef(t *testing.T) {
	insts, want := benchRef(t)
	var stdout, stderr bytes.Buffer
	args := []string{"-insts", strconv.FormatUint(insts, 10), "-progress=false"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("tables %v exited %d: %s", args, code, stderr.Bytes())
	}
	sum := sha256.Sum256(stdout.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("tables %v stdout SHA-256 %s, want %s (perfbench/refs.json)", args, got, want)
	}
}

// BenchmarkTables runs the benchmark's tables command line; scripts/pgo.sh
// profiles it to train the committed default.pgo files.
func BenchmarkTables(b *testing.B) {
	insts, _ := benchRef(b)
	args := []string{"-insts", strconv.FormatUint(insts, 10), "-progress=false"}
	for i := 0; i < b.N; i++ {
		if code := run(args, io.Discard, io.Discard); code != 0 {
			b.Fatalf("tables %v exited %d", args, code)
		}
	}
}

// TestTableSubsetMatchesFullRun: -table N prints exactly table N's section
// of the full run, so registering only the selected tables' runs changes
// no number.
func TestTableSubsetMatchesFullRun(t *testing.T) {
	const insts = "3000"
	tables := func(extra ...string) string {
		t.Helper()
		var stdout, stderr bytes.Buffer
		args := append([]string{"-insts", insts, "-progress=false"}, extra...)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("tables %v exited %d: %s", args, code, stderr.Bytes())
		}
		return stdout.String()
	}
	full := tables()
	for _, n := range []int{4, 9, 11, 12, 13} {
		banner := fmt.Sprintf("\n=== Table %d: ", n)
		start := strings.Index(full, banner)
		if start < 0 {
			t.Fatalf("full run has no Table %d", n)
		}
		end := strings.Index(full[start+1:], "\n=== Table ")
		if end < 0 {
			t.Fatalf("full run ends at Table %d", n)
		}
		if got, want := tables("-table", strconv.Itoa(n)), full[start:start+1+end]; got != want {
			t.Errorf("tables -table %d printed\n%s\nwant the full run's section\n%s", n, got, want)
		}
	}
}

// TestTraceRunIDsAreDistinct: in a tables -trace stream every run has its
// own ID, so each ID's cycles strictly increase; two runs under one ID
// would interleave their samples.
func TestTraceRunIDsAreDistinct(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"-insts", "3000", "-progress=false", "-trace", path}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("tables %v exited %d: %s", args, code, stderr.Bytes())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := telemetry.DecodeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]uint64{}
	for _, s := range samples {
		if c, seen := last[s.Run]; seen && s.Cycle <= c {
			t.Fatalf("run %q: cycle %d follows cycle %d", s.Run, s.Cycle, c)
		}
		last[s.Run] = s.Cycle
	}
	for _, id := range []string{"gcc/none", "gcc/none+proxies", "gcc/PI", "gcc/PI@110.6", "gcc/PID@110.6"} {
		if _, ok := last[id]; !ok {
			t.Errorf("trace has no run %q", id)
		}
	}
	if want := len(bench.Names()) * 10; len(last) != want {
		t.Errorf("trace has %d run IDs, want %d (18 benchmarks x none, proxied none, 6 policies, PI/PID at 110.6)", len(last), want)
	}
}

// TestCacheDirFeedsCatalog: tables -cache-dir stores every run in the
// directory's catalog, so tables -catalog lists them, and a rerun over the
// same directory prints the same tables from the store.
func TestCacheDirFeedsCatalog(t *testing.T) {
	dir := t.TempDir()
	tables := func(args ...string) (string, string) {
		t.Helper()
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("tables %v exited %d: %s", args, code, stderr.Bytes())
		}
		return stdout.String(), stderr.String()
	}
	args := []string{"-insts", "3000", "-progress=false", "-table", "4", "-cache-dir", dir}
	first, _ := tables(args...)
	if again, _ := tables(args...); again != first {
		t.Errorf("rerun over the store printed\n%s\nwant\n%s", again, first)
	}
	out, errOut := tables("-catalog", filepath.Join(dir, "catalog"))
	if want := fmt.Sprintf("run catalog: %d records\n", len(bench.Names())); errOut != want {
		t.Errorf("catalog stderr %q, want %q", errOut, want)
	}
	for _, b := range []string{"gcc/none", "art/none"} {
		if !strings.Contains(out, b) {
			t.Errorf("catalog rollup has no %s row:\n%s", b, out)
		}
	}
}
