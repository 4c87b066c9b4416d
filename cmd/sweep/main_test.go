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

// TestSweepCoresMatchesRef pins the multicore cores sweep at a small
// budget: its CSV digest and the simulated-cycle count on stderr, for a
// controller that shares the uncontrolled run's group to the end (PID) and
// one that leaves it (budget). A second run against the same catalog
// renders the same CSV from cataloged rows without simulating.
func TestSweepCoresMatchesRef(t *testing.T) {
	for _, c := range []struct {
		policy, sha256, cycles string
	}{
		{"PID", "1f05311f53933435c1502bfa18fbf4e6552fbc15243b7ecf51c219a5d9adaf1e", "sweep: 8 cells simulated, 1221134 cycles, "},
		{"budget", "809f494f988608a9d3e44a1ce56e9f492a372e5455d43deab149475b239ef39e", "sweep: 8 cells simulated, 1222922 cycles, "},
	} {
		dir := t.TempDir()
		args := []string{"-param", "cores", "-bench", "hotneighbor", "-policy", c.policy,
			"-insts", "20000", "-cache-dir", dir, "-fill"}
		for pass, want := range []string{
			"fill: 0/8 cells warm in catalog, dispatching 8 cold cells\n" + c.cycles,
			"fill: 8/8 cells warm in catalog, dispatching 0 cold cells\n",
		} {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("sweep %v exited %d: %s", args, code, stderr.Bytes())
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != c.sha256 {
				t.Errorf("%s pass %d: CSV SHA-256 %s, want %s\n%s", c.policy, pass, got, c.sha256, stdout.Bytes())
			}
			if !strings.HasPrefix(stderr.String(), want) {
				t.Errorf("%s pass %d: stderr %q, want prefix %q", c.policy, pass, stderr.String(), want)
			}
		}
	}
}
