//go:build !race

// Under the race detector the bundle's runs are about 15x slower; the
// check runs in the plain test pass only.

package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportWritesEveryTable: a tiny-budget bundle holds one text file
// per paper table, 2 through 14, each also in REPORT.md.
func TestReportWritesEveryTable(t *testing.T) {
	dir := t.TempDir()
	var stderr bytes.Buffer
	if code := run([]string{"-out", dir, "-insts", "3000"}, io.Discard, &stderr); code != 0 {
		t.Fatalf("report exited %d: %s", code, stderr.Bytes())
	}
	md, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	for n := 2; n <= 14; n++ {
		files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("table%02d_*.txt", n)))
		if err != nil || len(files) != 1 {
			t.Errorf("Table %d: files %v, %v; want one", n, files, err)
			continue
		}
		if body, err := os.ReadFile(files[0]); err != nil || len(body) == 0 {
			t.Errorf("Table %d: %s is empty (%v)", n, files[0], err)
		}
		if !strings.Contains(string(md), fmt.Sprintf("## Table %d — ", n)) {
			t.Errorf("REPORT.md has no Table %d section", n)
		}
	}
}
