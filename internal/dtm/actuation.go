package dtm

import (
	"fmt"

	"repro/internal/control"
)

// Actuation is the full set of microarchitectural knobs a DTM policy can
// drive (Section 2.1's mechanism menu): fetch-toggling duty, fetch-width
// throttling, and speculation control.
type Actuation struct {
	// FetchDuty is the fetch-toggling duty in [0,1]; 1 = ungated.
	FetchDuty float64
	// FetchLimit caps instructions fetched per cycle; 0 = full width.
	FetchLimit int
	// MaxUnresolved stalls fetch beyond this many in-flight unresolved
	// control transfers; 0 = disabled.
	MaxUnresolved int
}

// FullSpeed is the actuation with every mechanism disengaged.
func FullSpeed() Actuation { return Actuation{FetchDuty: 1} }

// Engaged reports whether any mechanism is restricting the pipeline.
func (a Actuation) Engaged() bool {
	return a.FetchDuty < 1 || a.FetchLimit > 0 || a.MaxUnresolved > 0
}

// Actuator is implemented by policies that drive knobs beyond the fetch
// duty. Plain Policy implementations are wrapped as duty-only actuations
// by the Manager.
type Actuator interface {
	Policy
	SampleActuation(temps []float64) Actuation
}

// Throttle is Brooks & Martonosi's fetch throttling: when engaged,
// instruction fetch still happens every cycle but its width is limited.
// The paper points out this cannot cool fetch-side hot spots (branch
// predictor, I-cache) because their access count per cycle is unchanged.
type Throttle struct {
	Trigger     float64
	Limit       int // fetched instructions per cycle while engaged
	PolicyDelay int

	engaged   bool
	remaining int
}

// NewThrottle builds the throttling policy.
func NewThrottle(trigger float64, limit, policyDelay int) *Throttle {
	if limit < 1 {
		panic(fmt.Sprintf("dtm: throttle limit %d < 1", limit))
	}
	return &Throttle{Trigger: trigger, Limit: limit, PolicyDelay: policyDelay}
}

// Name implements Policy.
func (t *Throttle) Name() string { return "throttle" }

// Reset implements Policy.
func (t *Throttle) Reset() { t.engaged, t.remaining = false, 0 }

// Sample implements Policy (duty view: throttling never gates fetch).
func (t *Throttle) Sample(temps []float64) float64 {
	t.SampleActuation(temps)
	return 1
}

// SampleActuation implements Actuator.
func (t *Throttle) SampleActuation(temps []float64) Actuation {
	hot := hottest(temps) > t.Trigger
	if hot {
		t.engaged = true
		t.remaining = t.PolicyDelay
	} else if t.engaged {
		if t.remaining > 0 {
			t.remaining--
		} else {
			t.engaged = false
		}
	}
	a := FullSpeed()
	if t.engaged {
		a.FetchLimit = t.Limit
	}
	return a
}

// SpecControl is Brooks & Martonosi's speculation control: when engaged,
// fetch stalls while more than MaxBranches unresolved branches are in
// flight. The paper notes it is ineffective for programs with excellent
// branch prediction, whose pipelines rarely hold that many unresolved
// branches.
type SpecControl struct {
	Trigger     float64
	MaxBranches int
	PolicyDelay int

	engaged   bool
	remaining int
}

// NewSpecControl builds the speculation-control policy.
func NewSpecControl(trigger float64, maxBranches, policyDelay int) *SpecControl {
	if maxBranches < 1 {
		panic(fmt.Sprintf("dtm: speculation bound %d < 1", maxBranches))
	}
	return &SpecControl{Trigger: trigger, MaxBranches: maxBranches, PolicyDelay: policyDelay}
}

// Name implements Policy.
func (s *SpecControl) Name() string { return "specctl" }

// Reset implements Policy.
func (s *SpecControl) Reset() { s.engaged, s.remaining = false, 0 }

// Sample implements Policy.
func (s *SpecControl) Sample(temps []float64) float64 {
	s.SampleActuation(temps)
	return 1
}

// SampleActuation implements Actuator.
func (s *SpecControl) SampleActuation(temps []float64) Actuation {
	hot := hottest(temps) > s.Trigger
	if hot {
		s.engaged = true
		s.remaining = s.PolicyDelay
	} else if s.engaged {
		if s.remaining > 0 {
			s.remaining--
		} else {
			s.engaged = false
		}
	}
	a := FullSpeed()
	if s.engaged {
		a.MaxUnresolved = s.MaxBranches
	}
	return a
}

// StepActuation is called once per cycle with the current block
// temperatures. It returns the actuation to apply (every knob) and any
// stall cycles imposed by the trigger mechanism this cycle. Policies that
// only produce a duty are wrapped as duty-only actuations.
func (m *Manager) StepActuation(cycle uint64, temps []float64) (Actuation, uint64) {
	if m.Interval == 0 || cycle%m.Interval != 0 {
		return m.act, 0
	}
	var a Actuation
	if ap, ok := m.Policy.(Actuator); ok {
		a = ap.SampleActuation(temps)
	} else {
		d := m.Policy.Sample(temps)
		if m.Levels > 1 {
			d = control.Quantize(d, m.Levels)
		}
		a = Actuation{FetchDuty: d}
	}
	transition := m.act.Engaged() != a.Engaged()
	if a.Engaged() && !m.act.Engaged() {
		m.engagements++
	}
	m.act = a
	if transition && m.Mechanism == Interrupt {
		return a, m.InterruptCost
	}
	return a, 0
}
