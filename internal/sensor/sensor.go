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
	"sync"
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

// Proxy runs the prior art's two boxcar power-average temperature proxies
// over one window: per structure, each block "triggers" when
// Tsink + Pavg*R crosses the emergency threshold; chip-wide, the proxy
// triggers when the average chip power crosses a wattage threshold.
//
// All series share one interleaved ring of window rows. Row k holds cycle
// k's block powers followed by the chip power, so one cycle reads and
// writes one contiguous row. Each series keeps a running sum, updated
// incrementally and recomputed exactly from the ring once per wrap: the
// incremental update `sum += x - evicted` accumulates floating-point
// rounding error without bound over long streams (catastrophically so
// when a large transient passes through the window), and the periodic
// recompute caps the drift at one window's worth of roundoff.
//
// Before the window fills, Step only adds, and it reads a slot only after
// writing it in the same run. The ring is therefore never zeroed: it
// comes from a pool that Release returns it to, and a ring left dirty by
// an earlier run gives the same results as a fresh one.
type Proxy struct {
	ring      *[]float64 // window rows of len(r)+1 samples; nil after Release
	sums      []float64  // per-block running sums, then the chip's
	r         []float64
	window    int
	head      int // next row to write
	full      bool
	sink      float64
	threshold float64
	chipW     float64
}

// ringPools holds released rings, one *sync.Pool per ring length.
var ringPools sync.Map

func ringPool(n int) *sync.Pool {
	if p, ok := ringPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := ringPools.LoadOrStore(n, &sync.Pool{New: func() any {
		ring := make([]float64, n)
		return &ring
	}})
	return p.(*sync.Pool)
}

// NewProxy builds both proxies for one window over blocks with the given
// thermal resistances: the per-structure proxy against the heatsink
// temperature and emergency threshold, the chip-wide one against chipW
// watts. It panics on an empty block set or a non-positive window, both
// configuration errors.
func NewProxy(rs []float64, window int, sink, threshold, chipW float64) *Proxy {
	if len(rs) == 0 {
		panic("sensor: no blocks for proxy")
	}
	if window <= 0 {
		panic(fmt.Sprintf("sensor: invalid proxy window %d", window))
	}
	return &Proxy{
		ring:      ringPool(window * (len(rs) + 1)).Get().(*[]float64),
		sums:      make([]float64, len(rs)+1),
		r:         append([]float64(nil), rs...),
		window:    window,
		sink:      sink,
		threshold: threshold,
		chipW:     chipW,
	}
}

// Step folds in this cycle's per-block power and total chip power and
// reports whether the per-structure proxy (any block) and the chip-wide
// proxy trigger. Before the window fills, the averages are over the cycles
// seen so far. Step must not be called after Release.
func (p *Proxy) Step(power []float64, chip float64) (hotS, hotC bool) {
	nb := len(p.r)
	if len(power) != nb {
		panic(fmt.Sprintf("sensor: %d powers for %d blocks", len(power), nb))
	}
	ring := *p.ring
	row := ring[p.head*(nb+1) : (p.head+1)*(nb+1)]
	sums := p.sums[:nb+1]
	if p.full {
		for i, x := range power {
			sums[i] += x - row[i]
			row[i] = x
		}
		sums[nb] += chip - row[nb]
	} else {
		for i, x := range power {
			sums[i] += x
			row[i] = x
		}
		sums[nb] += chip
	}
	row[nb] = chip
	p.head++
	if p.head == p.window {
		p.head = 0
		p.full = true
		clear(sums)
		for k := 0; k < len(ring); k += nb + 1 {
			for i, v := range ring[k : k+nb+1] {
				sums[i] += v
			}
		}
	}
	n := float64(p.head)
	if p.full {
		n = float64(p.window)
	}
	for i, r := range p.r {
		if p.sink+(sums[i]/n)*r > p.threshold {
			hotS = true
		}
	}
	return hotS, sums[nb]/n > p.chipW
}

// Release returns the ring to the pool for the next proxy of the same
// shape. The proxy must not be stepped afterwards; a second Release is a
// no-op. A proxy that is never released just leaves its ring to the GC.
func (p *Proxy) Release() {
	if p.ring == nil {
		return
	}
	ringPool(len(*p.ring)).Put(p.ring)
	p.ring = nil
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
