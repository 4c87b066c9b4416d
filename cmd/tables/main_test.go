//go:build !race

// Under the race detector a tables run is about 15x slower; the output
// gate runs in the plain test pass only.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"strconv"
	"testing"
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
