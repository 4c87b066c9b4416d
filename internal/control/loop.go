package control

import (
	"fmt"
	"math"
)

// Trace records a closed-loop simulation: time, plant output (temperature)
// and actuator command at every controller sample.
type Trace struct {
	Time []float64
	Temp []float64
	U    []float64
}

// LoopConfig parameterizes SimulateLoop.
type LoopConfig struct {
	// Ambient is the plant output when the actuator is fully off
	// (the heatsink temperature for the thermal plant).
	Ambient float64
	// Demand returns the disturbance at time t: the power the workload
	// *would* dissipate at full speed, as a fraction of the power that
	// produces the plant gain K (1.0 = the calibration power). The plant
	// input is Demand(t) * u(t).
	Demand func(t float64) float64
	// Duration is the simulated time in seconds.
	Duration float64
	// Levels quantizes the actuator to n discrete settings; 0 keeps the
	// command continuous.
	Levels int
}

// SimulateLoop runs the sampled-data control loop of Figure 1: at every
// controller period the temperature is sampled, the PID computes a duty,
// the duty (optionally quantized) scales the demanded power, and the
// first-order-plus-dead-time plant integrates forward one period. It is
// the analysis companion to the full microarchitectural simulation and
// backs the settling-time/overshoot design analysis of Section 2.2.
func SimulateLoop(p Plant, ctl *PID, cfg LoopConfig) Trace {
	if cfg.Duration <= 0 {
		panic(fmt.Sprintf("control: invalid loop duration %g", cfg.Duration))
	}
	dt := ctl.Ts
	n := int(cfg.Duration/dt) + 1
	tr := Trace{
		Time: make([]float64, 0, n),
		Temp: make([]float64, 0, n),
		U:    make([]float64, 0, n),
	}
	temp := cfg.Ambient
	// Dead-time buffer in whole samples (>= 0). L = Ts/2 rounds to a
	// one-sample-ish delay at the paper's parameters.
	delaySamples := int(math.Round(p.Delay / dt))
	buf := make([]float64, delaySamples+1)
	head := 0
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		u := ctl.Update(temp)
		if cfg.Levels > 1 {
			u = Quantize(u, cfg.Levels)
		}
		demand := 1.0
		if cfg.Demand != nil {
			demand = cfg.Demand(t)
		}
		// Push the new input, pop the delayed one.
		buf[head] = u * demand
		head = (head + 1) % len(buf)
		delayed := buf[head]
		// Exact first-order update over one sample.
		tss := cfg.Ambient + p.K*delayed
		temp = tss + (temp-tss)*math.Exp(-dt/p.Tau)
		tr.Time = append(tr.Time, t)
		tr.Temp = append(tr.Temp, temp)
		tr.U = append(tr.U, u)
	}
	return tr
}

// Overshoot returns the maximum excursion of the trace above the setpoint,
// in the same units as the trace (0 if the trace never crosses it).
func (tr Trace) Overshoot(setpoint float64) float64 {
	var max float64
	for _, v := range tr.Temp {
		if d := v - setpoint; d > max {
			max = d
		}
	}
	return max
}

// SettlingTime returns the first time after which the trace stays within
// +-band of the setpoint for the remainder of the simulation, or -1 if it
// never settles.
func (tr Trace) SettlingTime(setpoint, band float64) float64 {
	last := -1.0
	settled := false
	for i, v := range tr.Temp {
		if math.Abs(v-setpoint) <= band {
			if !settled {
				last = tr.Time[i]
				settled = true
			}
		} else {
			settled = false
			last = -1
		}
	}
	if !settled {
		return -1
	}
	return last
}

// MaxTemp returns the maximum plant output over the trace.
func (tr Trace) MaxTemp() float64 {
	m := math.Inf(-1)
	for _, v := range tr.Temp {
		if v > m {
			m = v
		}
	}
	return m
}

// MeanDuty returns the average actuator command over the trace — a direct
// proxy for the performance retained under DTM.
func (tr Trace) MeanDuty() float64 {
	if len(tr.U) == 0 {
		return 0
	}
	var s float64
	for _, u := range tr.U {
		s += u
	}
	return s / float64(len(tr.U))
}
