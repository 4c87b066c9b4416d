package sim

// The mechanisms every engine shares: the run loop, the actuation record a
// controller commands a core, the core a workload drives, and the thermal
// network setup. Solo runs (Sim), gangs and multicore runs each use these,
// so each mechanism has exactly one implementation.

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/dtm"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// ctxCheckInterval gates how often the run loop polls its context and
// yields the processor: every 1024 cycles (~0.4ms of work), so both
// cancellation latency and the serving plane's scheduling latency stay in
// the sub-millisecond range while the per-check cost stays well under
// 0.1%. The loop compares against a moving threshold rather than masking
// the cycle count because one Gang.Step advances many class-cycles and
// can jump over any fixed alignment.
const ctxCheckInterval = 1 << 10

// runLoop drives an engine to completion from progress count start,
// polling ctx every ctxCheckInterval counts; on cancellation it returns
// the context error. runTo steps the engine until it is done or its
// progress count reaches limit, and reports the count and whether work
// remains, so the per-cycle step stays a direct call inside the engine.
//
// Each checkpoint also yields the processor (runtime.Gosched). A
// simulation is a pure CPU loop with no natural scheduling points, so
// without the yield a saturated GOMAXPROCS pins latency-sensitive
// goroutines — cmd/serve's admission/shed path — behind the ~10ms async
// preemption quantum. One yield per ~1.6ms of simulated work costs well
// under 0.1% and never changes the simulated trajectory.
func runLoop(ctx context.Context, start uint64, runTo func(limit uint64) (uint64, bool)) error {
	done := ctx.Done()
	for check := start + ctxCheckInterval; ; {
		n, more := runTo(check)
		if !more {
			return nil
		}
		check = n + ctxCheckInterval
		if done != nil {
			select {
			case <-done:
				return context.Cause(ctx)
			default:
			}
		}
		runtime.Gosched()
	}
}

// actuation is the state a run's controllers command one core: the DTM
// knobs (fetch duty, fetch limit, speculation control), the frequency
// factor and the trigger stall. A solo or gang run holds the stall its
// controllers commanded at this cycle's samples until its class takes it
// into the class countdown; a multicore run's controls hold the stall
// commanded at the core's latest sample. Two runs whose actuation is the
// same consume a shared pipeline stream identically, which is what gangs
// and multicore groups test.
type actuation struct {
	dtm.Actuation
	freq  float64
	stall uint64
}

// fullSpeed is the actuation of a core no controller has touched.
func fullSpeed() actuation { return actuation{Actuation: dtm.FullSpeed(), freq: 1} }

// apply writes the actuation's pipeline knobs onto core. The setters are
// idempotent plain writes, so applying a record again is harmless.
func (a *actuation) apply(core *pipeline.Core) {
	core.SetFetchDuty(a.FetchDuty)
	core.SetFetchLimit(a.FetchLimit)
	core.SetMaxUnresolvedBranches(a.MaxUnresolved)
}

// same reports whether a and b are equal, bit for bit on the floats.
func (a *actuation) same(b *actuation) bool {
	return math.Float64bits(a.FetchDuty) == math.Float64bits(b.FetchDuty) &&
		math.Float64bits(a.freq) == math.Float64bits(b.freq) &&
		a.FetchLimit == b.FetchLimit && a.MaxUnresolved == b.MaxUnresolved &&
		a.stall == b.stall
}

// unit is one simulated core: the workload generator, the pipeline it
// feeds and the power model that prices the pipeline's activity.
type unit struct {
	gen    *workload.Generator
	core   *pipeline.Core
	pmodel *power.Model
}

// newUnit builds a core running prof.
func newUnit(prof workload.Profile, pcfg pipeline.Config, gating power.GatingStyle) (unit, error) {
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		return unit{}, err
	}
	core, err := pipeline.New(pcfg, gen)
	if err != nil {
		return unit{}, err
	}
	mcfg := power.DefaultConfig()
	mcfg.Gating = gating
	mcfg.Pipeline = pcfg
	pmodel, err := power.New(mcfg)
	if err != nil {
		return unit{}, err
	}
	return unit{gen: gen, core: core, pmodel: pmodel}, nil
}

// clone deep-copies the unit, bit-exactly.
func (u unit) clone() unit {
	gen := u.gen.Clone()
	return unit{gen: gen, core: u.core.Clone(gen), pmodel: u.pmodel.Clone()}
}

// newNetwork builds the thermal network of tcfg, starting at init when it
// is non-nil (one temperature per block).
func newNetwork(tcfg thermal.Config, init []float64) (*thermal.Network, error) {
	net := thermal.New(tcfg)
	if init != nil {
		if len(init) != net.NumBlocks() {
			return nil, fmt.Errorf("sim: InitTemps has %d entries but the thermal network has %d blocks",
				len(init), net.NumBlocks())
		}
		for i, t := range init {
			net.SetTemp(i, t)
		}
	}
	return net, nil
}

// joinPolicy names a primary policy combined with a frequency controller:
// the controller alone when there is no primary ("none").
func joinPolicy(primary, freq string) string {
	if primary == "none" {
		return freq
	}
	return primary + "+" + freq
}

// maxOf returns the maximum of a non-empty slice.
func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
