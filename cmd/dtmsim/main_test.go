package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestTraceOutputsPinned pins one traced run's stdout and figures to the
// bytes the tool printed and wrote before the per-block CSV, -svg and
// -heatmap moved into dtmsim: the summary line, then the CSV whose first
// three columns are the hottest-block temperature and duty trace.
func TestTraceOutputsPinned(t *testing.T) {
	dir := t.TempDir()
	svgPath, heatPath := filepath.Join(dir, "trace.svg"), filepath.Join(dir, "heat.svg")
	var stdout, stderr bytes.Buffer
	args := []string{"-bench", "gcc", "-policy", "PI", "-insts", "200000", "-trace", "5000",
		"-svg", svgPath, "-heatmap", heatPath}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("dtmsim %v exited %d: %s", args, code, stderr.Bytes())
	}
	summary, csv, _ := bytes.Cut(stdout.Bytes(), []byte("\n"))
	const wantSummary = "gcc        policy=PI       IPC=1.027 avgP= 40.5W maxP= 70.0W duty=1.00 emerg=  0.00% stress=  0.00% stalls=0"
	if string(summary) != wantSummary {
		t.Errorf("summary line\n%s\nwant\n%s", summary, wantSummary)
	}
	if got, want := sha(csv), "9e7a49a9ab90f93d591067d57d8fabf7c775931e2d4af2701b17cc377413a219"; got != want {
		t.Errorf("trace CSV SHA-256 %s, want %s", got, want)
	}
	for _, f := range []struct{ path, want string }{
		{svgPath, "b9c9c7c3f26faa606a659fb2d599aaf33a447009528ad9aa303e2e528aaec7fa"},
		{heatPath, "e4b7b4855d08934596a9fda797986af17522eafb799c64e4cce53483519e1db6"},
	} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(raw); got != f.want {
			t.Errorf("%s SHA-256 %s, want %s", filepath.Base(f.path), got, f.want)
		}
	}
	if !strings.Contains(stderr.String(), "cycles/s") {
		t.Errorf("stderr lacks the throughput line: %s", stderr.Bytes())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-svg", "x.svg"},
		{"-svg", "x.svg", "-trace", "0"},
		{"-svg", "x.svg", "-trace", "1000", "-bench", "all"},
		{"-heatmap", "x.svg", "-bench", "all"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("dtmsim %v exited %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("dtmsim %v wrote stdout: %s", args, stdout.Bytes())
		}
	}
	for _, args := range [][]string{
		{"-bench", "nope", "-insts", "1000"},
		{"-policy", "nope", "-insts", "1000"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Errorf("dtmsim %v exited %d, want 1", args, code)
		}
	}
}
