// Package control implements the paper's control-theoretic DTM machinery
// (Section 3): the thermal plant model, the PID controller family
// (P, PI, PD, PID) with actuator saturation and integral anti-windup, a
// Laplace-domain tuning procedure based on gain-crossover/phase-margin
// design, and closed-loop step-response analysis (settling time and
// overshoot, Section 2.2's "guaranteed settling times").
//
// The controlled process is the thermal dynamics of one chip structure
// (Equation 3):
//
//	G(s) = K * e^(-L*s) / (1 + tau*s)
//
// where K is the steady-state gain (the thermal R times the power the
// actuator modulates), tau is the thermal RC constant (the paper uses the
// longest block time constant), and L is the effective loop delay — half
// the sampling period introduced by sampling.
package control

import (
	"errors"
	"fmt"
	"math"
)

// Plant is the first-order-plus-dead-time model of Equation 3.
type Plant struct {
	// K is the steady-state gain in output units per unit of actuator
	// input (Kelvin per unit fetch duty here).
	K float64
	// Tau is the dominant time constant in seconds (thermal RC).
	Tau float64
	// Delay is the effective loop dead time L in seconds (half the
	// sampling period per Section 3.2).
	Delay float64
}

// FreqResponse returns magnitude and phase (radians) of G(j*omega).
func (p Plant) FreqResponse(omega float64) (mag, phase float64) {
	mag = p.K / math.Sqrt(1+omega*omega*p.Tau*p.Tau)
	phase = -math.Atan(omega*p.Tau) - omega*p.Delay
	return mag, phase
}

// Gains holds PID weights for the textbook parallel form
// u = Kp*e + Ki*Integral(e) + Kd*de/dt (Equation 1).
type Gains struct {
	Kp, Ki, Kd float64
}

// Kind selects which controller terms are active.
type Kind int

// Controller kinds evaluated in the paper (Section 3.2 derives P, PI, PD
// and PID from the same two design equations by zeroing terms).
const (
	KindP Kind = iota
	KindPI
	KindPD
	KindPID
)

// String returns the conventional controller name.
func (k Kind) String() string {
	switch k {
	case KindP:
		return "P"
	case KindPI:
		return "PI"
	case KindPD:
		return "PD"
	case KindPID:
		return "PID"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Spec parameterizes the tuning procedure.
type Spec struct {
	Kind Kind
	// Crossover is the desired gain-crossover frequency in rad/s. If
	// zero, the tuner picks the frequency at which the loop dead time
	// contributes 30 degrees of phase lag — fast, but with bounded
	// delay-induced uncertainty.
	Crossover float64
	// PhaseMargin is the desired phase margin in radians. If zero, a
	// robust 60-degree margin is used ("common values that are known to
	// work well in practice", Section 3.2).
	PhaseMargin float64
	// TiOverTd is the integral-to-derivative time ratio for the full
	// PID, the extra design constraint of Section 3.2. If zero, the
	// classic ratio 4 is used.
	TiOverTd float64
}

// Default design constants.
const (
	defaultPhaseMargin = 60 * math.Pi / 180
	defaultDelayPhase  = 30 * math.Pi / 180
	defaultTiOverTd    = 4.0
)

// Tune derives controller gains for the plant by gain-crossover /
// phase-margin design: it places |C(jwc)G(jwc)| = 1 and
// arg C(jwc)G(jwc) = -180deg + PhaseMargin, then splits the required
// controller phase between the integral and derivative actions according
// to the controller kind. It returns an error when the requested kind
// cannot supply the required phase at the chosen crossover.
func Tune(p Plant, spec Spec) (Gains, error) {
	if p.K <= 0 || p.Tau <= 0 || p.Delay < 0 {
		return Gains{}, fmt.Errorf("control: invalid plant %+v", p)
	}
	pm := spec.PhaseMargin
	if pm == 0 {
		pm = defaultPhaseMargin
	}
	if pm <= 0 || pm >= math.Pi/2+0.01 {
		return Gains{}, fmt.Errorf("control: phase margin %g rad out of range", pm)
	}
	wc := spec.Crossover
	if wc == 0 {
		if p.Delay > 0 {
			wc = defaultDelayPhase / p.Delay
		} else {
			wc = 10 / p.Tau
		}
	}
	if wc <= 0 {
		return Gains{}, fmt.Errorf("control: invalid crossover %g", wc)
	}
	mag, phase := p.FreqResponse(wc)
	m := 1 / mag // required controller magnitude at wc
	// Required controller phase at wc.
	theta := -math.Pi + pm - phase
	const eps = 1e-9
	switch spec.Kind {
	case KindP:
		// A pure gain cannot supply phase; accept a small shortfall
		// (the achieved margin is pm - theta).
		if theta > 30*math.Pi/180+eps || theta < -30*math.Pi/180-eps {
			return Gains{}, fmt.Errorf("control: P controller cannot supply %.1f deg at wc=%g",
				theta*180/math.Pi, wc)
		}
		return Gains{Kp: m}, nil
	case KindPI:
		// Integral action only lags: theta must be in (-90, 0].
		if theta > eps || theta <= -math.Pi/2+eps {
			return Gains{}, fmt.Errorf("control: PI needs controller phase in (-90,0] deg, got %.1f",
				theta*180/math.Pi)
		}
		return Gains{
			Kp: m * math.Cos(theta),
			Ki: -wc * m * math.Sin(theta),
		}, nil
	case KindPD:
		// Derivative action only leads: theta in [0, 90). A small
		// negative requirement degenerates to pure P (the derivative
		// term cannot lag), with a correspondingly small margin
		// shortfall.
		if theta >= math.Pi/2-eps || theta < -30*math.Pi/180-eps {
			return Gains{}, fmt.Errorf("control: PD needs controller phase in [0,90) deg, got %.1f",
				theta*180/math.Pi)
		}
		if theta < 0 {
			return Gains{Kp: m}, nil
		}
		return Gains{
			Kp: m * math.Cos(theta),
			Kd: m * math.Sin(theta) / wc,
		}, nil
	case KindPID:
		// Extra constraint Ti = rho*Td closes the system: with
		// x = Td*wc, the phase condition becomes x - 1/(rho*x) =
		// tan(theta), whose positive root fixes Td.
		if theta <= -math.Pi/2+eps || theta >= math.Pi/2-eps {
			return Gains{}, fmt.Errorf("control: PID needs |controller phase| < 90 deg, got %.1f",
				theta*180/math.Pi)
		}
		rho := spec.TiOverTd
		if rho == 0 {
			rho = defaultTiOverTd
		}
		if rho <= 0 {
			return Gains{}, fmt.Errorf("control: invalid Ti/Td ratio %g", rho)
		}
		tt := math.Tan(theta)
		x := (tt + math.Sqrt(tt*tt+4/rho)) / 2
		kp := m * math.Cos(theta)
		td := x / wc
		ti := rho * td
		return Gains{Kp: kp, Ki: kp / ti, Kd: kp * td}, nil
	default:
		return Gains{}, fmt.Errorf("control: unknown controller kind %d", spec.Kind)
	}
}

// MustTune is Tune but panics on error; for static configurations that are
// known-feasible.
func MustTune(p Plant, spec Spec) Gains {
	g, err := Tune(p, spec)
	if err != nil {
		panic(err)
	}
	return g
}

// OpenLoopPhaseMargin returns the achieved phase margin (radians) of the
// loop C(s)G(s) for the given gains, found at the gain-crossover frequency,
// along with that frequency. It returns an error if no crossover exists in
// the searched range.
func OpenLoopPhaseMargin(p Plant, g Gains) (pm, wc float64, err error) {
	loopMag := func(w float64) float64 {
		gm, _ := p.FreqResponse(w)
		re := g.Kp
		im := g.Kd*w - g.Ki/w
		return gm * math.Hypot(re, im)
	}
	// Bracket |L(jw)| = 1 by scanning decades, then bisect.
	lo, hi := 1e-3/p.Tau, 0.0
	if p.Delay > 0 {
		hi = 100 / p.Delay
	} else {
		hi = 1e6 / p.Tau
	}
	if loopMag(lo) < 1 {
		return 0, 0, errors.New("control: loop gain below unity at low frequency")
	}
	// Scan geometrically for a bracket [a, b] with |L(a)| >= 1 > |L(b)|.
	// The final step is clamped to hi (and hi itself evaluated) so a
	// crossover landing inside the last partial step is still found.
	a, b := lo, lo
	found := false
	for a < hi {
		b = a * 1.1
		if b > hi {
			b = hi
		}
		if loopMag(b) < 1 {
			found = true
			break
		}
		a = b
	}
	if !found {
		return 0, 0, errors.New("control: no gain crossover found")
	}
	for i := 0; i < 80; i++ {
		mid := math.Sqrt(a * b)
		if loopMag(mid) > 1 {
			a = mid
		} else {
			b = mid
		}
	}
	wc = math.Sqrt(a * b)
	_, gphase := p.FreqResponse(wc)
	cphase := math.Atan2(g.Kd*wc-g.Ki/wc, g.Kp)
	return math.Pi + gphase + cphase, wc, nil
}

// PID is the discrete-time runtime controller (Section 3.2) with actuator
// saturation handling and the paper's anti-windup policy (Section 3.3):
// the integrator freezes while the actuator is saturated, and the integral
// term is never allowed to go negative.
type PID struct {
	Gains
	// Setpoint is the target temperature (Celsius).
	Setpoint float64
	// SensorRange, when positive, clips the error to +-SensorRange,
	// modeling the bounded linear range of the thermal sensor around the
	// setpoint (Section 5.3's "sensor range").
	SensorRange float64
	// Ts is the sampling period in seconds (667 ns at 1000 cycles).
	Ts float64
	// OutMin, OutMax bound the actuator (fetch duty in [0,1]).
	OutMin, OutMax float64
	// DisableAntiWindup turns the windup protection off (ablation).
	DisableAntiWindup bool

	integ      float64
	prevErr    float64
	primed     bool
	lastSat    bool
	lastFrozen bool
	lastP      float64
	lastI      float64
	lastD      float64
}

// NewPID returns a runtime controller with the given tuning, setpoint and
// sampling period, with outputs bounded to [0, 1].
func NewPID(g Gains, setpoint, sensorRange, ts float64) *PID {
	if ts <= 0 {
		panic(fmt.Sprintf("control: invalid sampling period %g", ts))
	}
	return &PID{
		Gains:       g,
		Setpoint:    setpoint,
		SensorRange: sensorRange,
		Ts:          ts,
		OutMin:      0,
		OutMax:      1,
	}
}

// Reset clears the controller state.
func (c *PID) Reset() {
	c.integ, c.prevErr, c.primed, c.lastSat = 0, 0, false, false
	c.lastFrozen, c.lastP, c.lastI, c.lastD = false, 0, 0, 0
}

// Saturated reports whether the last Update hit an actuator bound.
func (c *PID) Saturated() bool { return c.lastSat }

// Frozen reports whether the last Update froze the integrator under the
// anti-windup policy.
func (c *PID) Frozen() bool { return c.lastFrozen }

// Terms returns the proportional, integral and derivative contributions of
// the last Update (the integral term reflects the post-anti-windup
// accumulator) — the per-sample controller trace the telemetry layer
// records.
func (c *PID) Terms() (p, i, d float64) { return c.lastP, c.lastI, c.lastD }

// Integral returns the current integral accumulator (for tests/ablations).
func (c *PID) Integral() float64 { return c.integ }

// Update samples the measured temperature and returns the actuator command
// in [OutMin, OutMax]. The command is the fraction of full activity the
// pipeline may sustain: 1 = run at full speed, 0 = fully toggled off.
//
// Error convention follows Section 3.1: e = Tset - T. Positive error
// (system cool) relaxes the actuator toward full speed; negative error
// (overheated) drives it toward zero.
func (c *PID) Update(measured float64) float64 {
	e := c.Setpoint - measured
	if c.SensorRange > 0 {
		if e > c.SensorRange {
			e = c.SensorRange
		} else if e < -c.SensorRange {
			e = -c.SensorRange
		}
	}
	var deriv float64
	if c.primed {
		deriv = (e - c.prevErr) / c.Ts
	}
	c.prevErr, c.primed = e, true

	// Tentatively integrate, then apply the paper's two windup rules.
	newInteg := c.integ + e*c.Ts
	if newInteg < 0 {
		// "...by preventing the integral from taking on a negative
		// value" (Section 3.3).
		newInteg = 0
	}
	u := c.Kp*e + c.Ki*newInteg + c.Kd*deriv
	sat := false
	if u > c.OutMax {
		u, sat = c.OutMax, true
	} else if u < c.OutMin {
		u, sat = c.OutMin, true
	}
	frozen := false
	if sat && !c.DisableAntiWindup {
		// Freeze the integrator while saturated unless integrating
		// would drive the output back inside the actuator range.
		unsatU := c.Kp*e + c.Ki*c.integ + c.Kd*deriv
		drivingOut := (u >= c.OutMax && newInteg > c.integ) ||
			(u <= c.OutMin && newInteg < c.integ)
		if drivingOut || unsatU > c.OutMax || unsatU < c.OutMin {
			frozen = newInteg != c.integ
			newInteg = c.integ
		}
	}
	c.integ = newInteg
	c.lastSat, c.lastFrozen = sat, frozen
	c.lastP, c.lastI, c.lastD = c.Kp*e, c.Ki*newInteg, c.Kd*deriv
	return u
}

// Quantize maps a continuous command u in [0,1] onto n evenly spaced
// discrete actuator levels {0, 1/(n-1), ..., 1}, the paper's "eight
// discrete values distributed evenly across the range" (Section 5.3).
func Quantize(u float64, n int) float64 {
	if n < 2 {
		panic(fmt.Sprintf("control: need >= 2 actuator levels, got %d", n))
	}
	if math.IsNaN(u) {
		// A divergent controller must not poison the actuator: NaN
		// compares false against every bound below and math.Round(NaN)
		// stays NaN, which would latch the fetch duty at NaN forever.
		// Fail toward full speed and let the thermal trigger re-engage.
		return 1
	}
	if u <= 0 {
		return 0
	}
	if u >= 1 {
		return 1
	}
	steps := float64(n - 1)
	return math.Round(u*steps) / steps
}
