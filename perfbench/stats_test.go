package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct, at float64
	}{
		{2000, 99, 1980}, // p99.9 would leave 2 beyond; p99 leaves 20
		{1000, 99, 990},  // exactly 10 beyond p99
		{999, 95, 950},   // p99 leaves 9
		{72, 75, 54},     // p90 leaves 7, p75 leaves 18
		{20, 50, 10},     // p50 leaves exactly 10
		{12, 100, 12},    // too few for any ladder entry: the maximum
		{1, 100, 1},
	} {
		v, p := tail(seq(tc.n))
		if p != tc.pct || v != tc.at {
			t.Errorf("n=%d: tail = %v at p%v, want %v at p%v", tc.n, v, p, tc.at, tc.pct)
		}
		if p < 100 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
			}
		}
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{seq(10), 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := iqrShare(seq(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("iqrShare = %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "a1", Parent: 1, Start: 15 * ms, End: 20 * ms},
		{Name: "b", Parent: 0, Start: 50 * ms, End: 70 * ms},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 25 * ms, 5 * ms, 20 * ms}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.timed("child", func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	if self[0] < 0 || self[0] >= tr.spans[0].dur() {
		t.Errorf("root self time %v not below its duration %v", self[0], tr.spans[0].dur())
	}
}
