// Package dtm implements the dynamic thermal management policies the paper
// evaluates (Sections 2 and 5.3):
//
// Non-control-theoretic (Brooks & Martonosi):
//   - fixed fetch toggling: toggle1 (fetch fully disabled while engaged)
//     and toggle2 (fetch every other cycle), engaged at a trigger
//     threshold and held for a policy delay;
//   - a hand-built proportional controller "M" whose toggling rate equals
//     the percentage error in temperature across a fixed band;
//   - fetch throttling and speculation control (pipeline-level actuators);
//   - frequency and voltage/frequency scaling (sim-level actuators).
//
// Control-theoretic (this paper): P, PI and PID controllers driving the
// variable fetch-toggling actuator through 8 discrete duty levels.
//
// A Manager owns the sampling cadence (1000 cycles), the trigger mechanism
// (direct hardware signal vs a 250-cycle interrupt handler) and actuator
// quantization.
package dtm

import (
	"fmt"

	"repro/internal/control"
)

// Policy maps sampled block temperatures to a fetch duty in [0,1]
// (1 = full speed).
type Policy interface {
	Name() string
	// Sample is invoked once per sampling interval with the current
	// per-block temperatures and returns the fetch duty to apply.
	Sample(temps []float64) float64
	// Reset clears internal state for a fresh run.
	Reset()
}

func hottest(temps []float64) float64 {
	if len(temps) == 0 {
		panic("dtm: Sample with no temperatures")
	}
	m := temps[0]
	for _, v := range temps[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// NoDTM is the uncontrolled baseline.
type NoDTM struct{}

// Name implements Policy.
func (NoDTM) Name() string { return "none" }

// Sample implements Policy: always full speed.
func (NoDTM) Sample([]float64) float64 { return 1 }

// Reset implements Policy.
func (NoDTM) Reset() {}

// Toggle is the fixed-strength fetch-toggling policy: when any block
// exceeds Trigger, the duty drops to EngagedDuty for at least PolicyDelay
// samples; it disengages once the temperature falls back below Trigger.
type Toggle struct {
	// Trigger is the engagement threshold in Celsius.
	Trigger float64
	// EngagedDuty is the duty while engaged: 0 for toggle1, 0.5 for
	// toggle2 (1 - 1/N for toggleN).
	EngagedDuty float64
	// PolicyDelay is the minimum number of samples the policy stays
	// engaged once triggered (Section 2.1's "policy delay").
	PolicyDelay int

	label     string
	engaged   bool
	remaining int
}

// NewToggle1 returns the paper's toggle1 baseline at the given trigger.
func NewToggle1(trigger float64, policyDelay int) *Toggle {
	return &Toggle{Trigger: trigger, EngagedDuty: 0, PolicyDelay: policyDelay, label: "toggle1"}
}

// NewToggle2 returns the toggle2 baseline (fetch every other cycle).
func NewToggle2(trigger float64, policyDelay int) *Toggle {
	return &Toggle{Trigger: trigger, EngagedDuty: 0.5, PolicyDelay: policyDelay, label: "toggle2"}
}

// Name implements Policy.
func (t *Toggle) Name() string {
	if t.label != "" {
		return t.label
	}
	return fmt.Sprintf("toggle(duty=%g)", t.EngagedDuty)
}

// Sample implements Policy.
func (t *Toggle) Sample(temps []float64) float64 {
	hot := hottest(temps) > t.Trigger
	if hot {
		t.engaged = true
		t.remaining = t.PolicyDelay
	} else if t.engaged {
		// PolicyDelay counts the below-trigger samples the policy
		// stays engaged after the last trigger.
		if t.remaining > 0 {
			t.remaining--
		} else {
			t.engaged = false
		}
	}
	if t.engaged {
		return t.EngagedDuty
	}
	return 1
}

// Reset implements Policy.
func (t *Toggle) Reset() { t.engaged, t.remaining = false, 0 }

// Manual is the hand-built proportional controller "M" of Section 5.3: the
// toggling rate equals the percentage error in temperature across the band
// [Low, High] — at or below Low the pipeline runs at full speed; at or
// above High fetch stops completely; halfway it toggles every other cycle.
type Manual struct {
	Low, High float64
}

// NewManual returns M with the paper's band: trigger (D-1) to emergency D.
func NewManual(low, high float64) *Manual {
	if high <= low {
		panic(fmt.Sprintf("dtm: manual band [%g,%g] inverted", low, high))
	}
	return &Manual{Low: low, High: high}
}

// Name implements Policy.
func (m *Manual) Name() string { return "M" }

// Sample implements Policy.
func (m *Manual) Sample(temps []float64) float64 {
	t := hottest(temps)
	frac := (t - m.Low) / (m.High - m.Low)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return 1 - frac
}

// Reset implements Policy.
func (m *Manual) Reset() {}

// CT is a control-theoretic policy wrapping a PID controller (Section 3):
// the controller output is the fetch duty, quantized by the Manager.
type CT struct {
	ctl  *control.PID
	kind control.Kind
}

// NewCT builds a CT policy from a tuned controller.
func NewCT(kind control.Kind, ctl *control.PID) *CT {
	if ctl == nil {
		panic("dtm: nil controller")
	}
	return &CT{ctl: ctl, kind: kind}
}

// Name implements Policy.
func (c *CT) Name() string { return c.kind.String() }

// Sample implements Policy: the controller observes the hottest block (the
// per-block sensor with the largest thermal error drives the response).
func (c *CT) Sample(temps []float64) float64 {
	return c.ctl.Update(hottest(temps))
}

// Reset implements Policy.
func (c *CT) Reset() { c.ctl.Reset() }

// Controller exposes the wrapped PID (tests and ablations).
func (c *CT) Controller() *control.PID { return c.ctl }

// Mechanism selects how a thermal trigger reaches the actuator
// (Section 2.1).
type Mechanism int

const (
	// Direct is the microarchitectural mechanism: the sensor directly
	// asserts a signal; no overhead.
	Direct Mechanism = iota
	// Interrupt raises an OS interrupt on every engage/disengage
	// transition, stalling the pipeline for InterruptCost cycles.
	Interrupt
)

// DefaultInterruptCost is the paper's 250-cycle handler overhead.
const DefaultInterruptCost = 250

// Manager owns sampling cadence, actuator quantization and trigger
// mechanism, and is stepped every cycle by the simulator.
type Manager struct {
	Policy Policy
	// Interval is the sampling period in cycles (paper: 1000).
	Interval uint64
	// Levels quantizes the duty to n discrete actuator settings
	// (paper: 8); 0 or 1 leaves the duty continuous.
	Levels int
	// Mechanism is the trigger mechanism; Interrupt charges
	// InterruptCost stall cycles per engage/disengage transition.
	Mechanism     Mechanism
	InterruptCost uint64

	act         Actuation
	engagements uint64
}

// DefaultSampleInterval is the paper's 1000-cycle controller period.
const DefaultSampleInterval = 1000

// NewManager wires a policy with the paper's defaults.
func NewManager(p Policy) *Manager {
	if p == nil {
		p = NoDTM{}
	}
	return &Manager{
		Policy:        p,
		Interval:      DefaultSampleInterval,
		Levels:        8,
		Mechanism:     Direct,
		InterruptCost: DefaultInterruptCost,
		act:           FullSpeed(),
	}
}

// Reset restores initial state.
func (m *Manager) Reset() {
	m.act = FullSpeed()
	m.engagements = 0
	m.Policy.Reset()
}

// Engagements returns the number of full-speed -> throttled transitions.
func (m *Manager) Engagements() uint64 { return m.engagements }
