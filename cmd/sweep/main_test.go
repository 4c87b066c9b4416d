//go:build !race

// Under the race detector a sweep is about 15x slower; the output gate
// runs in the plain test pass only.

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// benchPolicy is the -policy each sweep grid of the benchmark runs with.
var benchPolicy = map[string]string{"setpoint": "PI", "trigger": "toggle1"}

// sweepRef is the benchmark's sweep reference in perfbench/refs.json: the
// budget and each command's CSV digest by "<param>/<bench>", in sorted id
// order. The file is only read.
func sweepRef(tb testing.TB) (insts uint64, ids []string, sha map[string]string) {
	tb.Helper()
	raw, err := os.ReadFile("../../perfbench/refs.json")
	if err != nil {
		tb.Fatal(err)
	}
	var refs struct {
		Sweep struct {
			Insts  uint64            `json:"insts"`
			SHA256 map[string]string `json:"csv_sha256"`
		} `json:"sweep"`
	}
	if err := json.Unmarshal(raw, &refs); err != nil {
		tb.Fatalf("refs.json: %v", err)
	}
	if refs.Sweep.Insts == 0 || len(refs.Sweep.SHA256) == 0 {
		tb.Fatal("refs.json: no sweep reference")
	}
	for id := range refs.Sweep.SHA256 {
		if _, ok := benchPolicy[strings.Split(id, "/")[0]]; !ok {
			tb.Fatalf("refs.json: sweep %s has no known grid", id)
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return refs.Sweep.Insts, ids, refs.Sweep.SHA256
}

// sweepArgs is the command line of sweep command id at insts.
func sweepArgs(id string, insts uint64) []string {
	param, bench, _ := strings.Cut(id, "/")
	return []string{"-param", param, "-policy", benchPolicy[param], "-bench", bench,
		"-insts", strconv.FormatUint(insts, 10)}
}

// TestSweepMatchesBenchRef is the sweep output gate: every sweep command
// the benchmark runs prints, at the benchmark's budget, exactly the CSV
// whose digest perfbench/refs.json records.
func TestSweepMatchesBenchRef(t *testing.T) {
	insts, ids, sha := sweepRef(t)
	for _, id := range ids {
		var stdout, stderr bytes.Buffer
		args := sweepArgs(id, insts)
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("sweep %v exited %d: %s", args, code, stderr.Bytes())
		}
		sum := sha256.Sum256(stdout.Bytes())
		if got, want := hex.EncodeToString(sum[:]), sha[id]; got != want {
			t.Errorf("sweep %v CSV SHA-256 %s, want %s (perfbench/refs.json)", args, got, want)
		}
	}
}

// BenchmarkSweep runs the benchmark's sweep commands, the PI setpoint and
// toggle1 trigger grids over every benchmark at its budget, once per
// iteration; scripts/pgo.sh profiles it to train cmd/sweep's default.pgo.
func BenchmarkSweep(b *testing.B) {
	insts, ids, _ := sweepRef(b)
	for i := 0; i < b.N; i++ {
		for _, id := range ids {
			if args := sweepArgs(id, insts); run(args, io.Discard, io.Discard) != 0 {
				b.Fatalf("sweep %v failed", args)
			}
		}
	}
}

// TestSweepCoresMatchesRef pins the multicore cores sweep at a small
// budget: its CSV digest and the simulated-cycle count on stderr, for a
// controller that shares the uncontrolled run's group to the end (PID) and
// one that leaves it (budget). A second run against the same cache
// directory renders the same CSV from cataloged rows without simulating.
func TestSweepCoresMatchesRef(t *testing.T) {
	for _, c := range []struct {
		policy, sha256, cycles string
	}{
		{"PID", "1f05311f53933435c1502bfa18fbf4e6552fbc15243b7ecf51c219a5d9adaf1e", "sweep: 8 cells simulated, 1221134 cycles, "},
		{"budget", "809f494f988608a9d3e44a1ce56e9f492a372e5455d43deab149475b239ef39e", "sweep: 8 cells simulated, 1222922 cycles, "},
	} {
		dir := t.TempDir()
		args := []string{"-param", "cores", "-bench", "hotneighbor", "-policy", c.policy,
			"-insts", "20000", "-cache-dir", dir}
		for pass, want := range []string{
			"cache pre-flight: 0/8 cells warm, 8 cold\n" + c.cycles,
			"cache pre-flight: 8/8 cells warm, 0 cold\n",
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

// TestSweepRepeatFromStore: a solo grid run twice against one cache
// directory simulates every cell once, and the second pass answers all of
// them from the store with the CSV of an uncached run.
func TestSweepRepeatFromStore(t *testing.T) {
	args := []string{"-param", "trigger", "-policy", "toggle1", "-bench", "gcc", "-insts", "20000"}
	var plain, stderr bytes.Buffer
	if code := run(args, &plain, &stderr); code != 0 {
		t.Fatalf("sweep %v exited %d: %s", args, code, stderr.Bytes())
	}
	args = append(args, "-cache-dir", t.TempDir())
	for pass, want := range []string{
		"cache pre-flight: 0/7 cells warm, 7 cold\n",
		"cache pre-flight: 7/7 cells warm, 0 cold\n",
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("sweep %v exited %d: %s", args, code, stderr.Bytes())
		}
		if !bytes.Equal(stdout.Bytes(), plain.Bytes()) {
			t.Errorf("pass %d CSV differs from the uncached run:\n%s\nwant:\n%s", pass, stdout.Bytes(), plain.Bytes())
		}
		if !strings.HasPrefix(stderr.String(), want) {
			t.Errorf("pass %d: stderr %q, want prefix %q", pass, stderr.String(), want)
		}
		if simulated := strings.Contains(stderr.String(), "cells simulated"); simulated != (pass == 0) {
			t.Errorf("pass %d: stderr %q", pass, stderr.String())
		}
	}
}
