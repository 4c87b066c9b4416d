// Package sensor models the two temperature-observation mechanisms the
// paper compares in Section 6:
//
//   - idealized per-block thermal sensors that read the RC model's true
//     temperature (the paper's assumption for its DTM experiments), with an
//     optional noise/offset extension (Section 4.2 flags real-sensor
//     modeling as future work); and
//   - the prior art's boxcar power averages used as a temperature proxy,
//     both per-structure (trigger when Pavg*R + Tsink exceeds the
//     threshold) and chip-wide (trigger when Pavg exceeds a wattage
//     threshold, 47 W here vs Brooks & Martonosi's 24/25 W at their scale).
//
// The Comparator counts, cycle by cycle, the proxy's missed emergencies and
// false triggers against the RC model (Tables 9 and 10).
package sensor

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Sensor reads block temperatures, optionally with offset and quantization
// error; the paper's experiments use the ideal configuration.
type Sensor struct {
	// Offset is added to every reading (calibration error).
	Offset float64
	// Quantum, when positive, quantizes readings to multiples of itself
	// (ADC resolution).
	Quantum float64
}

// Read returns the sensor's view of a true temperature.
func (s Sensor) Read(trueTemp float64) float64 {
	v := trueTemp + s.Offset
	if s.Quantum > 0 {
		// math.Round, not int64(x+0.5): the conversion truncates toward
		// zero, which mis-rounds readings that land negative after a
		// calibration offset (e.g. -1.2 quanta would round to -0.7 -> 0).
		v = s.Quantum * math.Round(v/s.Quantum)
	}
	return v
}

// StructProxy is the per-structure boxcar power-average temperature proxy:
// for each block, a moving average of its power over a window; the block
// "triggers" when Tsink + Pavg*R crosses the emergency threshold.
type StructProxy struct {
	boxcars   []*stats.Boxcar
	r         []float64
	sink      float64
	threshold float64
}

// NewStructProxy builds a proxy over blocks with the given thermal
// resistances, heatsink temperature and trigger threshold.
func NewStructProxy(rs []float64, window int, sink, threshold float64) *StructProxy {
	if len(rs) == 0 {
		panic("sensor: no blocks for proxy")
	}
	p := &StructProxy{r: append([]float64(nil), rs...), sink: sink, threshold: threshold}
	for range rs {
		p.boxcars = append(p.boxcars, stats.NewBoxcar(window))
	}
	return p
}

// Step folds in this cycle's per-block power and reports whether any block
// triggers.
func (p *StructProxy) Step(power []float64) bool {
	if len(power) != len(p.boxcars) {
		panic(fmt.Sprintf("sensor: %d powers for %d blocks", len(power), len(p.boxcars)))
	}
	hot := false
	for i, bc := range p.boxcars {
		avg := bc.Add(power[i])
		if p.sink+avg*p.r[i] > p.threshold {
			hot = true
		}
	}
	return hot
}

// ChipProxy is the chip-wide boxcar power proxy: a single moving average of
// total chip power with a wattage trigger threshold.
type ChipProxy struct {
	boxcar    *stats.Boxcar
	threshold float64
}

// NewChipProxy builds a chip-wide proxy with the given window and trigger
// threshold in watts.
func NewChipProxy(window int, thresholdWatts float64) *ChipProxy {
	return &ChipProxy{boxcar: stats.NewBoxcar(window), threshold: thresholdWatts}
}

// Step folds in total chip power and reports whether the proxy triggers.
func (p *ChipProxy) Step(chipPower float64) bool {
	return p.boxcar.Add(chipPower) > p.threshold
}

// Comparison tallies proxy-vs-model agreement over a run (one row of
// Table 9 or 10).
type Comparison struct {
	Cycles uint64
	// TrueEmergency counts cycles the RC model reports an emergency.
	TrueEmergency uint64
	// ProxyTrigger counts cycles the proxy triggers.
	ProxyTrigger uint64
	// Missed counts cycles with a true emergency the proxy did not flag.
	Missed uint64
	// False counts cycles the proxy flagged without a true emergency.
	False uint64
}

// Record tallies one cycle.
func (c *Comparison) Record(trueEmergency, proxyTrigger bool) {
	c.Cycles++
	if trueEmergency {
		c.TrueEmergency++
		if !proxyTrigger {
			c.Missed++
		}
	}
	if proxyTrigger {
		c.ProxyTrigger++
		if !trueEmergency {
			c.False++
		}
	}
}

// MissedFrac returns missed emergency cycles as a fraction of true
// emergency cycles (0 when there were none).
func (c *Comparison) MissedFrac() float64 {
	if c.TrueEmergency == 0 {
		return 0
	}
	return float64(c.Missed) / float64(c.TrueEmergency)
}

// FalseFrac returns false-trigger cycles as a fraction of all cycles.
func (c *Comparison) FalseFrac() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.False) / float64(c.Cycles)
}
