// Package stats provides the small statistical utilities shared by the
// simulator, the experiment harness and the table generators: running
// scalars, boxcar averages, time series with fixed-stride downsampling, and
// table formatting.
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

// Boxcar is a fixed-window moving average over a scalar stream — the
// power-averaging proxy used by Brooks & Martonosi and evaluated against the
// RC thermal model in Section 6 of the paper.
type Boxcar struct {
	buf  []float64
	head int
	full bool
	sum  float64
}

// NewBoxcar returns a moving average over the last window samples.
// It panics if window is not positive, since a zero-length boxcar is
// always a configuration error.
func NewBoxcar(window int) *Boxcar {
	if window <= 0 {
		panic(fmt.Sprintf("stats: invalid boxcar window %d", window))
	}
	return &Boxcar{buf: make([]float64, window)}
}

// Add pushes a sample and returns the current average. Before the window
// fills, the average is over the samples seen so far.
//
// The running sum is maintained incrementally (O(1) per sample) but
// recomputed exactly from the buffer once per window wrap: the incremental
// update `sum += x - evicted` accumulates floating-point rounding error
// without bound over long streams (catastrophically so when a large
// transient passes through the window), and the periodic recompute caps
// the drift at one window's worth of roundoff.
func (b *Boxcar) Add(x float64) float64 {
	b.sum += x - b.buf[b.head]
	b.buf[b.head] = x
	b.head++
	if b.head == len(b.buf) {
		b.head = 0
		b.full = true
		sum := 0.0
		for _, v := range b.buf {
			sum += v
		}
		b.sum = sum
	}
	return b.Avg()
}

// Avg returns the current average without adding a sample.
func (b *Boxcar) Avg() float64 {
	n := len(b.buf)
	if !b.full {
		n = b.head
		if n == 0 {
			return 0
		}
	}
	return b.sum / float64(n)
}

// Series records a downsampled time series: every Stride-th sample is kept.
type Series struct {
	Stride uint64
	Xs     []uint64
	Ys     []float64
	n      uint64
}

// NewSeries returns a series keeping one sample per stride ticks.
func NewSeries(stride uint64) *Series {
	if stride == 0 {
		stride = 1
	}
	return &Series{Stride: stride}
}

// Add records sample y at tick x if x falls on the stride.
func (s *Series) Add(x uint64, y float64) {
	if s.n%s.Stride == 0 {
		s.Xs = append(s.Xs, x)
		s.Ys = append(s.Ys, y)
	}
	s.n++
}

// Bump advances the tick counter by n without offering samples, as if Add
// had been called n times on ticks that fall between retained points.
// Strided producers that only materialize values on retention boundaries
// use it to keep the stride phase identical to a per-tick caller.
func (s *Series) Bump(n uint64) { s.n += n }

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
