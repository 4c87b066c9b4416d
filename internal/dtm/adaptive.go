package dtm

// AdaptiveGain is an adjustable-gain integral controller for per-core DVFS
// regulation in the shape of Rao et al. (arXiv:1507.06357): a pure integral
// law on the frequency factor whose gain is scheduled on the magnitude of
// the temperature error — a small gain near the setpoint for smooth
// regulation, a large gain far from it for fast engagement and recovery.
//
// Unlike the paper's fetch-duty policies, Sample returns a frequency
// factor: the simulator applies it as DVFS (clock gating at factor f with
// dynamic power scaled by f^2, net f^3 power at f throughput). The
// integral state IS the actuator setting, so clamping the state to
// [FMin, 1] doubles as anti-windup.
type AdaptiveGain struct {
	// Setpoint is the target temperature for the core's hottest block.
	Setpoint float64
	// KiLow is the integral gain while |error| <= Knee (fine regulation).
	KiLow float64
	// KiHigh is the integral gain while |error| > Knee (fast slewing).
	KiHigh float64
	// Knee is the error magnitude in Celsius where the gain switches.
	Knee float64
	// FMin is the lowest frequency factor the controller will command.
	FMin float64

	f float64
}

// Default adjustable-gain parameters: the low gain moves the frequency
// ~2%/sample per degree of error near the setpoint; the high gain slews an
// order of magnitude faster once the error exceeds the knee, reaching FMin
// from full speed in ~4 samples under a 1 C-past-knee excursion.
const (
	defaultKiLow  = 0.02
	defaultKiHigh = 0.2
	defaultKnee   = 0.3
	defaultFMin   = 0.25
)

// NewAdaptiveGain returns the controller with default gains at the given
// setpoint.
func NewAdaptiveGain(setpoint float64) *AdaptiveGain {
	return &AdaptiveGain{
		Setpoint: setpoint,
		KiLow:    defaultKiLow,
		KiHigh:   defaultKiHigh,
		Knee:     defaultKnee,
		FMin:     defaultFMin,
		f:        1,
	}
}

// Name implements Policy.
func (a *AdaptiveGain) Name() string { return "agi" }

// Sample implements Policy over the core's sampled block temperatures,
// returning the frequency factor in [FMin, 1]. The error is computed from
// the hottest block, the paper's convention for every controller.
func (a *AdaptiveGain) Sample(temps []float64) float64 {
	e := a.Setpoint - hottest(temps)
	ki := a.KiLow
	if e > a.Knee || e < -a.Knee {
		ki = a.KiHigh
	}
	a.f += ki * e
	if a.f > 1 {
		a.f = 1
	}
	if a.f < a.FMin {
		a.f = a.FMin
	}
	return a.f
}

// Reset implements Policy.
func (a *AdaptiveGain) Reset() { a.f = 1 }
