package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // 0 for per-layer metrics, which have none
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// verdict is the paired comparison of one metric.
type verdict struct {
	Name           string
	Unit           string
	Pairs, Wins    int
	ParentMed, Med float64
	ParentIQR, IQR float64 // as shares of the median
	Delta          float64 // (change - parent) / parent median
	Outcome        string
}

// Comparison outcomes.
const (
	outGain       = "gain"       // change wins >= 9/10 of pairs by more than the parent's spread
	outRegression = "regression" // change median worse than the parent's by more than the bound
	outUnresolved = "unresolved" // spread wider than the bound and no clean separation
	outSame       = "no-change"  // within the bound, no gain shown
	outTooFew     = "too-few-pairs"
)

// minPairs is the fewest alternating pairs a verdict may rest on.
const minPairs = 10

// compareRuns applies the paired-run rule to one metric: parent[i] and
// change[i] are the i-th pair, run alternately. A gain needs the change to
// win at least nine tenths of all pairs (ties count for neither) and the
// medians to differ by more than the parent's interquartile range. A
// regression is a median worse than the parent's by more than bound. When
// either side's spread exceeds the bound the metric is unresolved, unless
// every change run beats every parent run.
func compareRuns(spec metricSpec, parent, change []float64) verdict {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	v := verdict{Name: spec.Name, Unit: spec.Unit, Pairs: n}
	if n == 0 {
		v.Outcome = outTooFew
		return v
	}
	lower := spec.Better == "lower"
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			v.Wins++
		}
	}
	v.ParentMed, v.Med = median(parent), median(change)
	v.ParentIQR, v.IQR = iqrShare(parent), iqrShare(change)
	if v.ParentMed != 0 {
		v.Delta = (v.Med - v.ParentMed) / math.Abs(v.ParentMed)
	}
	worse := v.Delta
	if !lower {
		worse = -v.Delta
	}
	pq1, pq3 := quartiles(parent)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && better(c, p)
		}
	}
	switch {
	case n < minPairs:
		v.Outcome = outTooFew
	case spec.Bound > 0 && math.Max(v.ParentIQR, v.IQR) > spec.Bound && !allBetter:
		v.Outcome = outUnresolved
	case spec.Bound > 0 && worse > spec.Bound:
		v.Outcome = outRegression
	case 10*v.Wins >= 9*n && better(v.Med, v.ParentMed) && math.Abs(v.Med-v.ParentMed) > pq3-pq1:
		v.Outcome = outGain
	default:
		v.Outcome = outSame
	}
	return v
}

// readResults reads one benchmark result object per line; other lines
// (the harness's progress on a captured terminal) are skipped.
func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareMain prints a per-metric verdict for two files of paired runs.
func compareMain(args []string, benchPath string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare parent.jsonl change.jsonl")
	}
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readResults(args[0])
	if err != nil {
		return err
	}
	change, err := readResults(args[1])
	if err != nil {
		return err
	}
	for _, v := range compareAll(spec, parent, change) {
		fmt.Fprintf(w, "%-28s %-6s parent %12.5g (iqr %5.1f%%)  change %12.5g (iqr %5.1f%%)  delta %+7.2f%%  wins %d/%d  %s\n",
			v.Name, v.Unit, v.ParentMed, 100*v.ParentIQR, v.Med, 100*v.IQR, 100*v.Delta, v.Wins, v.Pairs, v.Outcome)
	}
	pf, cf := failures(parent), failures(change)
	fmt.Fprintf(w, "failed operations: parent %d, change %d\n", pf, cf)
	if cf > pf {
		fmt.Fprintln(w, "the change fails more operations than the parent: no gain counts")
	}
	return nil
}

// compareAll compares every metric of spec that both sides reported.
func compareAll(spec benchSpec, parent, change []result) []verdict {
	var out []verdict
	for _, ms := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		p, c := values(parent, ms.Name), values(change, ms.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		out = append(out, compareRuns(ms, p, c))
	}
	return out
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
		if !r.Correct {
			n++
		}
	}
	return n
}
