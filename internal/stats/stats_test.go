package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.n != 0 {
		t.Fatalf("zero Running not zero: mean=%v n=%v", r.Mean(), r.n)
	}
	for _, x := range []float64{3, 1, 4, 1, 5} {
		r.Add(x)
	}
	if r.n != 5 {
		t.Errorf("n = %d, want 5", r.n)
	}
	if got, want := r.Mean(), 14.0/5; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %v, want %v", got, want)
	}
}

func TestSeriesStride(t *testing.T) {
	if s := NewSeries(0); s.Stride != 1 {
		t.Errorf("NewSeries(0).Stride = %d, want 1", s.Stride)
	}
	s := NewSeries(10)
	for i := uint64(1); i < 100; i += s.Stride {
		s.Add(i, float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d, want 10", s.Len())
	}
	if s.Xs[0] != 1 || s.Xs[9] != 91 || s.Ys[9] != 91 {
		t.Errorf("points %v..%v = %v..%v, want 1..91", s.Xs[0], s.Xs[9], s.Ys[0], s.Ys[9])
	}
}

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Errorf("mean = %v, want 2", m)
	}
	if m := Mean(nil); m != 0 {
		t.Errorf("mean(nil) = %v, want 0", m)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Header: []string{"name", "value"}}
	tab.AddRow("alpha", "1")
	tab.AddRow("b", "23456")
	out := tab.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "23456") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"c": 1, "a": 2, "b": 3}
	ks := SortedKeys(m)
	if len(ks) != 3 || ks[0] != "a" || ks[2] != "c" {
		t.Errorf("sorted keys = %v", ks)
	}
}

func TestRunningVariance(t *testing.T) {
	var r Running
	if r.Variance() != 0 || r.StdDev() != 0 {
		t.Error("empty variance not 0")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Add(x)
	}
	// Known population variance 4, stddev 2.
	if math.Abs(r.Variance()-4) > 1e-12 {
		t.Errorf("variance = %v, want 4", r.Variance())
	}
	if math.Abs(r.StdDev()-2) > 1e-12 {
		t.Errorf("stddev = %v, want 2", r.StdDev())
	}
}

// Property: Welford mean matches sum/n, variance is non-negative.
func TestRunningWelfordProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var r Running
		var sum float64
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			r.Add(x)
			sum += x
			n++
		}
		if n == 0 {
			return true
		}
		want := sum / float64(n)
		return math.Abs(r.Mean()-want) <= 1e-6*(1+math.Abs(want)) && r.Variance() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
