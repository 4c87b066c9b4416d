package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runs(base float64, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base + step*float64(i%5)
	}
	return xs
}

func TestCompareRunsVerdicts(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "slo_frac", Unit: "ratio", Better: "higher", Bound: 0.1}
	parent := runs(10, 0.1, 10) // iqr about 0.3 on a median of 10.2

	for _, tc := range []struct {
		name   string
		spec   metricSpec
		p, c   []float64
		result string
	}{
		{"clear gain", lower, parent, runs(9, 0.1, 10), outGain},
		{"small shift inside the parent's spread", lower, parent, runs(9.95, 0.1, 10), outSame},
		{"regression past the bound", lower, parent, runs(11.5, 0.1, 10), outRegression},
		{"worse but within the bound", lower, parent, runs(10.5, 0.1, 10), outSame},
		{"spread wider than the bound", lower, runs(10, 1.5, 10), runs(10, 1.5, 10), outUnresolved},
		{"wide but every change run better", lower, runs(20, 2, 10), runs(5, 1, 10), outGain},
		{"higher is better", higher, runs(0.80, 0.01, 10), runs(0.95, 0.01, 10), outGain},
		{"fewer than ten pairs", lower, parent[:9], runs(9, 0.1, 9), outTooFew},
	} {
		v := compareRuns(tc.spec, tc.p, tc.c)
		if v.Outcome != tc.result {
			t.Errorf("%s: %s (wins %d/%d, delta %+.3f, parent iqr %.3f)", tc.name, v.Outcome, v.Wins, v.Pairs, v.Delta, v.ParentIQR)
		}
	}
}

// Nine wins in ten are enough; eight are not, whatever the medians say.
func TestCompareNeedsNineTenthsOfPairs(t *testing.T) {
	spec := metricSpec{Name: "x", Better: "lower", Bound: 0.5}
	parent := []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}
	change := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 11}
	if v := compareRuns(spec, parent, change); v.Outcome != outGain || v.Wins != 9 {
		t.Errorf("9/10 wins: %s (%d wins)", v.Outcome, v.Wins)
	}
	change[8] = 10 // a tie counts for neither side
	if v := compareRuns(spec, parent, change); v.Outcome == outGain {
		t.Errorf("8/10 wins with a tie reported as %s", v.Outcome)
	}
}

func TestCompareMainPrintsEveryMetricByName(t *testing.T) {
	dir := t.TempDir()
	spec := benchSpec{EndToEnd: []metricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}}}
	write := func(name string, vals []float64) string {
		var b bytes.Buffer
		for _, v := range vals {
			r := result{Correct: true, Attempted: 1}
			r.set("wall_s", v, "s")
			line, _ := json.Marshal(r)
			b.Write(line)
			b.WriteString("\nprogress line that is not JSON\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	specData, _ := json.Marshal(spec)
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, specData, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := compareMain([]string{write("p.jsonl", runs(10, 0.1, 10)), write("c.jsonl", runs(9, 0.1, 10))}, specPath, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "wall_s") || !strings.Contains(out.String(), outGain) {
		t.Errorf("output:\n%s", out.String())
	}
}
