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

func TestBoxcarWarmupAndSteady(t *testing.T) {
	b := NewBoxcar(4)
	if got := b.Avg(); got != 0 {
		t.Fatalf("empty avg = %v, want 0", got)
	}
	if got := b.Add(8); got != 8 {
		t.Errorf("first avg = %v, want 8", got)
	}
	b.Add(0)
	if got := b.Avg(); got != 4 {
		t.Errorf("partial avg = %v, want 4", got)
	}
	b.Add(0)
	b.Add(0)
	// Window now holds {8,0,0,0}; pushing 4 evicts the 8.
	if got := b.Add(4); got != 1 {
		t.Errorf("avg = %v, want 1", got)
	}
}

func TestBoxcarPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBoxcar(0) did not panic")
		}
	}()
	NewBoxcar(0)
}

// Property: a full boxcar average always lies within [min, max] of the last
// window of samples, and matches a direct recomputation.
func TestBoxcarMatchesDirectAverage(t *testing.T) {
	f := func(raw []float64, w8 uint8) bool {
		w := int(w8%16) + 1
		b := NewBoxcar(w)
		samples := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			samples = append(samples, x)
			b.Add(x)
		}
		n := len(samples)
		if n == 0 {
			return b.Avg() == 0
		}
		lo := n - w
		if lo < 0 {
			lo = 0
		}
		var sum float64
		for _, x := range samples[lo:] {
			sum += x
		}
		want := sum / float64(n-lo)
		return math.Abs(b.Avg()-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestBoxcarRecoversFromCatastrophicAbsorption pins the incremental-sum
// drift fix: a large transient passing through the window used to destroy
// the running sum permanently. With sum ~ 1e17, adding 1.0 is fully
// absorbed (the ulp at 1e17 is 16), so when the spike was evicted the
// incremental update `sum += 1 - spike` left ~1 instead of the true 8 —
// and without the recompute-on-wrap the average stayed wrong forever.
func TestBoxcarRecoversFromCatastrophicAbsorption(t *testing.T) {
	const w = 8
	const spike = 1e17
	b := NewBoxcar(w)
	feed := func(xs ...float64) {
		for _, x := range xs {
			b.Add(x)
		}
	}
	ones := make([]float64, w)
	for i := range ones {
		ones[i] = 1
	}
	feed(ones...)       // steady window of 1s
	feed(spike)         // transient enters
	feed(ones[:w-1]...) // window wraps with the spike inside
	feed(ones...)       // transient evicted, another full wrap
	if got := b.Avg(); got != 1 {
		t.Fatalf("average after transient passed = %v, want exactly 1", got)
	}

	// And against a naive O(n) recomputation at every step of a stream
	// that keeps pushing large/small magnitude flips through the window.
	b = NewBoxcar(w)
	var hist []float64
	for i := 0; i < 10*w; i++ {
		x := 1.0
		if i%11 == 0 {
			x = 1e15
		}
		hist = append(hist, x)
		got := b.Add(x)
		lo := len(hist) - w
		if lo < 0 {
			lo = 0
		}
		var sum float64
		for _, v := range hist[lo:] {
			sum += v
		}
		want := sum / float64(len(hist)-lo)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("step %d: incremental avg %v diverged from naive %v", i, got, want)
		}
	}
}

func TestSeriesStride(t *testing.T) {
	s := NewSeries(10)
	for i := uint64(0); i < 100; i++ {
		s.Add(i, float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d, want 10", s.Len())
	}
	if s.Xs[0] != 0 || s.Xs[9] != 90 {
		t.Errorf("xs = %v..%v, want 0..90", s.Xs[0], s.Xs[9])
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
