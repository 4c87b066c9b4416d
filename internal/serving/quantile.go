package serving

// Latency-sample aggregation shared by cmd/loadgen's report and the
// serving tests: exact quantiles over a recorded sample set (loadgen runs
// are short enough that keeping every sample is cheaper and more precise
// than a streaming sketch).

import (
	"math"
	"sort"
	"time"
)

// Quantiles returns the requested quantiles (each 0 <= q <= 1) of samples
// in one sort, interpolating linearly between order statistics. Every
// quantile of an empty set is 0, and samples is not modified.
func Quantiles(samples []time.Duration, qs ...float64) []time.Duration {
	out := make([]time.Duration, len(qs))
	if len(samples) == 0 {
		return out
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, q := range qs {
		out[i] = quantileSorted(sorted, q)
	}
	return out
}

func quantileSorted(sorted []time.Duration, q float64) time.Duration {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}
