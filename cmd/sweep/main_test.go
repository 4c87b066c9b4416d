//go:build !race

// Under the race detector a sweep is about 15x slower; the output gate
// runs in the plain test pass only.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchPolicy is the -policy each sweep grid of the benchmark runs with.
var benchPolicy = map[string]string{"setpoint": "PI", "trigger": "toggle1"}

// TestSweepMatchesBenchRef is the sweep output gate: every sweep command
// the benchmark runs prints, at the benchmark's budget, exactly the CSV
// whose digest perfbench/refs.json records. The file is only read.
func TestSweepMatchesBenchRef(t *testing.T) {
	raw, err := os.ReadFile("../../perfbench/refs.json")
	if err != nil {
		t.Fatal(err)
	}
	var refs struct {
		Sweep struct {
			Insts  uint64            `json:"insts"`
			SHA256 map[string]string `json:"csv_sha256"` // "<param>/<bench>" -> digest
		} `json:"sweep"`
	}
	if err := json.Unmarshal(raw, &refs); err != nil {
		t.Fatalf("refs.json: %v", err)
	}
	if refs.Sweep.Insts == 0 || len(refs.Sweep.SHA256) == 0 {
		t.Fatal("refs.json: no sweep reference")
	}
	ids := make([]string, 0, len(refs.Sweep.SHA256))
	for id := range refs.Sweep.SHA256 {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		param, bench, _ := strings.Cut(id, "/")
		policy, ok := benchPolicy[param]
		if !ok {
			t.Fatalf("refs.json: sweep %s has no known grid", id)
		}
		var stdout, stderr bytes.Buffer
		args := []string{"-param", param, "-policy", policy, "-bench", bench,
			"-insts", strconv.FormatUint(refs.Sweep.Insts, 10)}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("sweep %v exited %d: %s", args, code, stderr.Bytes())
		}
		sum := sha256.Sum256(stdout.Bytes())
		if got, want := hex.EncodeToString(sum[:]), refs.Sweep.SHA256[id]; got != want {
			t.Errorf("sweep %v CSV SHA-256 %s, want %s (perfbench/refs.json)", args, got, want)
		}
	}
}
