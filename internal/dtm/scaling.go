package dtm

import "fmt"

// Scaling models the paper's two global scaling mechanisms (Section 2.1):
// clock-frequency scaling and combined voltage/frequency scaling. Unlike
// the microarchitectural policies, scaling slows the whole processor and
// each engage/disengage costs a long resynchronization stall, so it must be
// held for a substantial policy delay.
//
// Power effect: dynamic power is proportional to f*V^2. Frequency-only
// scaling cuts power linearly with the factor; voltage/frequency scaling
// (V tracking f) cuts it cubically.
type Scaling struct {
	// Trigger is the engagement threshold in Celsius.
	Trigger float64
	// Factor is the scaled clock ratio in (0,1), e.g. 0.5 = half speed.
	Factor float64
	// VoltageToo scales supply voltage with frequency (cubic power law).
	VoltageToo bool
	// ResyncCycles is the pipeline stall on every engage/disengage while
	// the clock re-locks (the paper cites up to a millisecond; default
	// 15000 cycles = 10 us at 1.5 GHz).
	ResyncCycles uint64
	// PolicyDelay is the minimum number of samples scaling stays
	// engaged.
	PolicyDelay int

	engaged   bool
	remaining int
}

// DefaultResyncCycles is the default re-lock stall.
const DefaultResyncCycles = 15000

// NewFreqScaling returns frequency-only scaling.
func NewFreqScaling(trigger, factor float64, policyDelay int) *Scaling {
	return newScaling(trigger, factor, policyDelay, false)
}

// NewVoltageScaling returns combined voltage/frequency scaling.
func NewVoltageScaling(trigger, factor float64, policyDelay int) *Scaling {
	return newScaling(trigger, factor, policyDelay, true)
}

func newScaling(trigger, factor float64, policyDelay int, voltage bool) *Scaling {
	if factor <= 0 || factor >= 1 {
		panic(fmt.Sprintf("dtm: scaling factor %g outside (0,1)", factor))
	}
	return &Scaling{
		Trigger:      trigger,
		Factor:       factor,
		VoltageToo:   voltage,
		ResyncCycles: DefaultResyncCycles,
		PolicyDelay:  policyDelay,
	}
}

// Name returns the mechanism name.
func (s *Scaling) Name() string {
	if s.VoltageToo {
		return "vfscale"
	}
	return "fscale"
}

// Reset clears engagement state.
func (s *Scaling) Reset() { s.engaged, s.remaining = false, 0 }

// Engaged reports whether scaling is currently active.
func (s *Scaling) Engaged() bool { return s.engaged }

// Sample updates engagement from the hottest block temperature and returns
// the current frequency factor (1 when disengaged) plus any resync stall
// incurred by a transition this sample.
func (s *Scaling) Sample(temps []float64) (freqFactor float64, stall uint64) {
	return s.SampleAt(temps, s.Trigger)
}

// SampleAt is Sample with an explicit engagement threshold, letting a
// composing mechanism (the hierarchy) raise the effective trigger for one
// deployment without mutating the Scaling it was handed.
func (s *Scaling) SampleAt(temps []float64, trigger float64) (freqFactor float64, stall uint64) {
	hot := hottest(temps) > trigger
	was := s.engaged
	if hot {
		s.engaged = true
		s.remaining = s.PolicyDelay
	} else if s.engaged {
		// Same policy-delay semantics as Toggle: the count of
		// below-trigger samples held engaged after the last trigger.
		if s.remaining > 0 {
			s.remaining--
		} else {
			s.engaged = false
		}
	}
	if s.engaged != was {
		stall = s.ResyncCycles
	}
	if s.engaged {
		return s.Factor, stall
	}
	return 1, stall
}

// PowerFactor returns the multiplier applied to dynamic power while running
// at the current setting.
func (s *Scaling) PowerFactor() float64 {
	if !s.engaged {
		return 1
	}
	if s.VoltageToo {
		return s.Factor * s.Factor * s.Factor
	}
	return s.Factor
}
