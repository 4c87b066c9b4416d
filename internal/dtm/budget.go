package dtm

import (
	"fmt"

	"repro/internal/control"
)

// PowerBudget is a hierarchical global-budget + local-PI controller in the
// ControlPULP shape (arXiv:2306.09501): a slow outer layer divides a
// chip-wide power budget across cores in proportion to each core's thermal
// headroom, and a fast inner layer runs one PI fetch-duty controller per
// core, with the local duty additionally capped so the core's recent power
// draw stays inside its allocation.
//
// It is not a Policy — its unit of control is the whole chip, so the
// multicore simulator calls SampleAll with per-core observations and gets
// all duties back in one allocation-free pass.
type PowerBudget struct {
	// Budget is the chip-wide power budget in watts.
	Budget float64
	// Period is the number of local samples per global reallocation
	// (the outer layer runs Period times slower than the inner PIs).
	Period int
	// Setpoint is the per-core temperature target used both by the local
	// PIs and by the headroom computation.
	Setpoint float64

	locals  []*control.PID
	alloc   []float64
	samples int
}

// minHeadroom floors a core's headroom share so a core at or above the
// setpoint still receives a sliver of budget rather than a hard zero — the
// local PI, not the allocator, is responsible for pulling it down.
const minHeadroom = 0.05

// NewPowerBudget builds the hierarchical controller for the given core
// count: budget watts chip-wide, per-core PIs from gains g at the given
// setpoint/sensorRange/ts, reallocating every period samples.
func NewPowerBudget(cores int, budget float64, g control.Gains, setpoint, sensorRange, ts float64, period int) *PowerBudget {
	if cores < 1 {
		panic("dtm: PowerBudget needs at least one core")
	}
	if budget <= 0 {
		panic(fmt.Sprintf("dtm: non-positive power budget %g", budget))
	}
	if period < 1 {
		period = 1
	}
	b := &PowerBudget{
		Budget:   budget,
		Period:   period,
		Setpoint: setpoint,
		locals:   make([]*control.PID, cores),
		alloc:    make([]float64, cores),
	}
	for i := range b.locals {
		b.locals[i] = control.NewPID(g, setpoint, sensorRange, ts)
	}
	b.Reset()
	return b
}

// Name identifies the controller in tables.
func (b *PowerBudget) Name() string { return "budget" }

// Cores returns the number of cores the controller manages.
func (b *PowerBudget) Cores() int { return len(b.locals) }

// Alloc returns core i's current power allocation in watts.
func (b *PowerBudget) Alloc(i int) float64 { return b.alloc[i] }

// Reset restores even allocations and resets every local PI.
func (b *PowerBudget) Reset() {
	for i := range b.locals {
		b.locals[i].Reset()
		b.alloc[i] = b.Budget / float64(len(b.locals))
	}
	b.samples = 0
}

// SampleAll runs one sampling step: hot[i] is core i's hottest observed
// temperature, power[i] its average power since the last sample, and
// duties[i] receives the fetch duty to apply. Every Period calls the
// global layer first redistributes the budget by thermal headroom
// h_i = max(minHeadroom, Setpoint - hot_i); every call the local PIs run
// and their output is capped at alloc_i/power_i when the core overdraws.
// All three slices must have length Cores(); nothing is allocated.
func (b *PowerBudget) SampleAll(hot, power, duties []float64) {
	n := len(b.locals)
	if len(hot) != n || len(power) != n || len(duties) != n {
		panic(fmt.Sprintf("dtm: SampleAll slices %d/%d/%d for %d cores",
			len(hot), len(power), len(duties), n))
	}
	if b.samples%b.Period == 0 {
		total := 0.0
		for i := 0; i < n; i++ {
			h := b.Setpoint - hot[i]
			if h < minHeadroom {
				h = minHeadroom
			}
			total += h
		}
		for i := 0; i < n; i++ {
			h := b.Setpoint - hot[i]
			if h < minHeadroom {
				h = minHeadroom
			}
			b.alloc[i] = b.Budget * h / total
		}
	}
	b.samples++
	for i := 0; i < n; i++ {
		d := b.locals[i].Update(hot[i])
		if power[i] > b.alloc[i] {
			// The duty scales fetch, which scales power roughly
			// linearly, so alloc/power is the duty that would bring the
			// core back inside its allocation.
			if lim := b.alloc[i] / power[i]; d > lim {
				d = lim
			}
		}
		duties[i] = d
	}
}
