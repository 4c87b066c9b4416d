// Package stats provides the small statistical utilities shared by the
// simulator, the experiment harness and the table generators: running
// means and variances, strided time series, and table formatting. The boxcar power averages of Section 6 live in
// package sensor, as the Proxy ring.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates the mean and variance of a scalar stream without
// retaining samples (variance via Welford's update).
type Running struct {
	n        uint64
	sum      float64
	mean, m2 float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	r.n++
	r.sum += x
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Variance returns the (population) variance, or 0 with < 2 samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Series is a time series sampled every Stride ticks: its producer
// decides the sample ticks and Add appends each point.
type Series struct {
	Stride uint64
	Xs     []uint64
	Ys     []float64
}

// NewSeries returns an empty series sampled every stride ticks.
func NewSeries(stride uint64) *Series {
	if stride == 0 {
		stride = 1
	}
	return &Series{Stride: stride}
}

// Add appends sample y at tick x.
func (s *Series) Add(x uint64, y float64) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// Len returns the number of retained points.
func (s *Series) Len() int { return len(s.Xs) }

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percent formats a fraction as a fixed-width percentage.
func Percent(frac float64) string { return fmt.Sprintf("%6.2f%%", frac*100) }

// Table is a minimal fixed-width text table used by cmd/tables to print the
// paper's tables.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with columns padded to their widest cell.
func (t *Table) String() string {
	ncol := len(t.Header)
	for _, r := range t.Rows {
		if len(r) > ncol {
			ncol = len(r)
		}
	}
	width := make([]int, ncol)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Header)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < ncol; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := ncol*2 - 2
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}

// SortedKeys returns the keys of m in sorted order; used to make map-driven
// reports deterministic.
func SortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
