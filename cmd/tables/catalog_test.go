package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/packstore"
	"repro/internal/sim"
)

// TestCatalogListsStoredResult: -catalog opens the cache directory's pack
// store, so it lists a result that is in the store and nowhere else, as
// a worker's /query over the directory does.
func TestCatalogListsStoredResult(t *testing.T) {
	dir := t.TempDir()
	store, err := packstore.Open(dir, packstore.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(&sim.Result{Benchmark: "gcc", Policy: "PI", IPC: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put("k1", blob); err != nil {
		t.Fatal(err)
	}
	store.Close()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-catalog", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("tables -catalog exited %d: %s", code, stderr.Bytes())
	}
	if got, want := stderr.String(), "run catalog: 1 records\n"; got != want {
		t.Errorf("catalog stderr %q, want %q", got, want)
	}
	if !strings.Contains(stdout.String(), "gcc/PI") {
		t.Errorf("catalog rollup has no gcc/PI row:\n%s", stdout.String())
	}
}
