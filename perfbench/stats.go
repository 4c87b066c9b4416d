package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first. The tail of a sample is the highest of these that leaves at
// least minBeyond samples above it.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples a reported tail percentile must
// leave above it, so a tail never rests on a handful of outliers.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// rank is the 1-based nearest rank of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return min(max(r, 1), n)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail applies the tail rule: the value at the highest ladder percentile
// with at least minBeyond samples above its nearest rank. A sample too
// small for any ladder entry reports its maximum, as percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	for _, p := range tailLadder {
		if len(s)-rank(len(s), p) >= minBeyond {
			return s[rank(len(s), p)-1], p
		}
	}
	return s[len(s)-1], 100
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), so spreads here match the ones other tools report.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// iqrShare is the interquartile range as a share of the median.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}
