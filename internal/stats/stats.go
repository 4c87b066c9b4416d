// Package stats provides the small statistical utilities shared by the
// simulator, the experiment harness and the table generators: running
// scalars, histograms, exponentially-weighted and boxcar averages, and time
// series with fixed-stride downsampling.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Running accumulates count/sum/min/max/mean/variance for a scalar stream
// without retaining samples (variance via Welford's update).
type Running struct {
	n        uint64
	sum      float64
	min, max float64
	mean, m2 float64
}

// Add records one sample.
func (r *Running) Add(x float64) {
	if r.n == 0 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.n++
	r.sum += x
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the sample count.
func (r *Running) N() uint64 { return r.n }

// Sum returns the sample sum.
func (r *Running) Sum() float64 { return r.sum }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

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

// Window returns the configured window length.
func (b *Boxcar) Window() int { return len(b.buf) }

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

// Full reports whether the window has filled at least once.
func (b *Boxcar) Full() bool { return b.full }

// Reset clears the window.
func (b *Boxcar) Reset() {
	for i := range b.buf {
		b.buf[i] = 0
	}
	b.head, b.full, b.sum = 0, false, 0
}

// EWMA is an exponentially weighted moving average.
type EWMA struct {
	alpha float64
	v     float64
	init  bool
}

// NewEWMA returns an EWMA with the given smoothing factor in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("stats: invalid EWMA alpha %g", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Add folds in a sample and returns the updated average.
func (e *EWMA) Add(x float64) float64 {
	if !e.init {
		e.v, e.init = x, true
	} else {
		e.v += e.alpha * (x - e.v)
	}
	return e.v
}

// Value returns the current average.
func (e *EWMA) Value() float64 { return e.v }

// Histogram counts samples into uniform bins over [lo, hi); out-of-range
// samples land in the first or last bin.
type Histogram struct {
	lo, hi float64
	bins   []uint64
	n      uint64
}

// NewHistogram creates a histogram with nbins uniform bins spanning [lo, hi).
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 || !(hi > lo) {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g)x%d", lo, hi, nbins))
	}
	return &Histogram{lo: lo, hi: hi, bins: make([]uint64, nbins)}
}

// Add records one sample.
func (h *Histogram) Add(x float64) {
	i := int(float64(len(h.bins)) * (x - h.lo) / (h.hi - h.lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.n++
}

// N returns the total sample count.
func (h *Histogram) N() uint64 { return h.n }

// Bin returns the count in bin i.
func (h *Histogram) Bin(i int) uint64 { return h.bins[i] }

// NumBins returns the bin count.
func (h *Histogram) NumBins() int { return len(h.bins) }

// BinCenter returns the midpoint value of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.hi - h.lo) / float64(len(h.bins))
	return h.lo + w*(float64(i)+0.5)
}

// Quantile returns an approximate q-quantile (q in [0,1]) from the binned
// distribution, or NaN with no samples. Quantile(0) returns the center of
// the first non-empty bin (the binned minimum).
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.bins {
		cum += float64(c)
		// cum > 0 skips empty leading bins: with q = 0 the target is 0
		// and a bare cum >= target would report BinCenter(0) even when
		// no sample ever landed there.
		if cum >= target && cum > 0 {
			return h.BinCenter(i)
		}
	}
	return h.BinCenter(len(h.bins) - 1)
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

// Max returns the maximum retained value, or -Inf when empty.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, y := range s.Ys {
		if y > m {
			m = y
		}
	}
	return m
}

// GeoMean returns the geometric mean of xs; zero or negative entries are
// skipped (they would otherwise poison the product). Returns 0 for an empty
// or all-invalid input.
func GeoMean(xs []float64) float64 {
	var sum float64
	var n int
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

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
