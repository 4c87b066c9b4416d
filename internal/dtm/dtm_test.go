package dtm

import (
	"math"
	"testing"

	"repro/internal/control"
)

func temps(max float64) []float64 { return []float64{100, 101, max, 100.5} }

func TestNoDTMAlwaysFullSpeed(t *testing.T) {
	p := NoDTM{}
	if p.Name() != "none" {
		t.Error("name")
	}
	if p.Sample(temps(150)) != 1 {
		t.Error("NoDTM throttled")
	}
	p.Reset()
}

func TestToggle1EngageDisengage(t *testing.T) {
	tg := NewToggle1(110.3, 2)
	if tg.Name() != "toggle1" {
		t.Errorf("name = %q", tg.Name())
	}
	if d := tg.Sample(temps(109)); d != 1 {
		t.Errorf("cool duty = %v", d)
	}
	if d := tg.Sample(temps(111)); d != 0 {
		t.Errorf("hot duty = %v, want 0", d)
	}
	// Below trigger: stays engaged for PolicyDelay samples.
	if d := tg.Sample(temps(109)); d != 0 {
		t.Errorf("duty during policy delay = %v, want 0", d)
	}
	if d := tg.Sample(temps(109)); d != 0 {
		t.Errorf("duty during policy delay 2 = %v, want 0", d)
	}
	if d := tg.Sample(temps(109)); d != 1 {
		t.Errorf("duty after policy delay = %v, want 1", d)
	}
}

func TestToggleRetriggerExtendsDelay(t *testing.T) {
	tg := NewToggle2(110.3, 3)
	tg.Sample(temps(111))
	tg.Sample(temps(109)) // delay 2 left
	tg.Sample(temps(111)) // re-trigger: delay back to 3
	d := 0.0
	for i := 0; i < 3; i++ {
		d = tg.Sample(temps(109))
	}
	if d != 0.5 {
		t.Errorf("duty = %v during extended delay, want 0.5", d)
	}
	if d = tg.Sample(temps(109)); d != 1 {
		t.Errorf("duty = %v after extended delay, want 1", d)
	}
	tg.Reset()
	if d := tg.Sample(temps(109)); d != 1 {
		t.Errorf("duty after reset = %v", d)
	}
}

func TestManualProportionalBand(t *testing.T) {
	m := NewManual(110.3, 111.3)
	cases := []struct{ temp, want float64 }{
		{109, 1}, {110.3, 1}, {110.8, 0.5}, {111.3, 0}, {112, 0},
	}
	for _, c := range cases {
		if got := m.Sample(temps(c.temp)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("M(%v) = %v, want %v", c.temp, got, c.want)
		}
	}
	if m.Name() != "M" {
		t.Error("name")
	}
}

func TestNewManualPanicsOnInvertedBand(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted band accepted")
		}
	}()
	NewManual(111.3, 110.3)
}

func TestCTPolicyDrivesFromHottestBlock(t *testing.T) {
	plant := control.Plant{K: 12, Tau: 180e-6, Delay: 333.5e-9}
	g := control.MustTune(plant, control.Spec{Kind: control.KindPI})
	ctl := control.NewPID(g, 111.1, 0.2, 667e-9)
	p := NewCT(control.KindPI, ctl)
	if p.Name() != "PI" {
		t.Errorf("name = %q", p.Name())
	}
	if d := p.Sample(temps(100)); d != 1 {
		t.Errorf("cool duty = %v", d)
	}
	if d := p.Sample(temps(112)); d != 0 {
		t.Errorf("hot duty = %v", d)
	}
	p.Reset()
	if p.Controller().Integral() != 0 {
		t.Error("reset did not clear controller")
	}
}

func TestHottestPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("hottest(nil) did not panic")
		}
	}()
	NoDTMWrapper{}.Sample(nil)
}

// NoDTMWrapper exercises hottest via a policy that uses it.
type NoDTMWrapper struct{ Manual }

func (NoDTMWrapper) Sample(ts []float64) float64 {
	m := Manual{Low: 1, High: 2}
	return m.Sample(ts)
}

func TestManagerSamplingCadence(t *testing.T) {
	tg := NewToggle1(110.3, 1)
	m := NewManager(tg)
	m.Interval = 10
	// Non-sample cycles return the held duty without consulting policy.
	a, stall := m.StepActuation(1, temps(120))
	if a.FetchDuty != 1 || stall != 0 {
		t.Errorf("off-cycle step = %v,%v", a.FetchDuty, stall)
	}
	a, _ = m.StepActuation(10, temps(120))
	if a.FetchDuty != 0 {
		t.Errorf("sample-cycle duty = %v, want 0", a.FetchDuty)
	}
	if m.act.FetchDuty != 0 {
		t.Error("manager did not hold duty")
	}
	if m.Engagements() != 1 {
		t.Errorf("engagements = %d", m.Engagements())
	}
}

func TestManagerQuantizesCTDuty(t *testing.T) {
	plant := control.Plant{K: 12, Tau: 180e-6, Delay: 333.5e-9}
	g := control.Gains{Kp: 2.5} // P-only: easy to predict raw duty
	ctl := control.NewPID(g, 111.1, 0.2, 667e-9)
	m := NewManager(NewCT(control.KindP, ctl))
	m.Interval = 1
	_ = plant
	// error = 0.1 -> raw duty 0.25 -> nearest of 8 levels = 2/7.
	a, _ := m.StepActuation(0, []float64{111.0})
	if math.Abs(a.FetchDuty-2.0/7) > 1e-9 {
		t.Errorf("quantized duty = %v, want 2/7", a.FetchDuty)
	}
}

func TestManagerInterruptCost(t *testing.T) {
	tg := NewToggle1(110.3, 1)
	m := NewManager(tg)
	m.Interval = 1
	m.Mechanism = Interrupt
	_, stall := m.StepActuation(0, temps(109))
	if stall != 0 {
		t.Errorf("no-transition stall = %d", stall)
	}
	_, stall = m.StepActuation(1, temps(112))
	if stall != DefaultInterruptCost {
		t.Errorf("engage stall = %d, want %d", stall, DefaultInterruptCost)
	}
	_, stall = m.StepActuation(2, temps(112))
	if stall != 0 {
		t.Errorf("steady stall = %d", stall)
	}
	// One cool sample is absorbed by the policy delay...
	_, stall = m.StepActuation(3, temps(100))
	if stall != 0 {
		t.Errorf("held stall = %d, want 0", stall)
	}
	// ...then the disengage transition raises the second interrupt.
	_, stall = m.StepActuation(4, temps(100))
	if stall != DefaultInterruptCost {
		t.Errorf("disengage stall = %d, want %d", stall, DefaultInterruptCost)
	}
}

func TestManagerNilPolicyDefaultsToNone(t *testing.T) {
	m := NewManager(nil)
	a, _ := m.StepActuation(0, temps(150))
	if a.FetchDuty != 1 {
		t.Errorf("nil-policy duty = %v", a.FetchDuty)
	}
	m.Reset()
}

func TestScalingEngagement(t *testing.T) {
	s := NewFreqScaling(110.3, 0.5, 2)
	if s.Name() != "fscale" {
		t.Error("name")
	}
	f, stall := s.Sample(temps(109))
	if f != 1 || stall != 0 {
		t.Errorf("cool = %v,%v", f, stall)
	}
	f, stall = s.Sample(temps(112))
	if f != 0.5 || stall != DefaultResyncCycles {
		t.Errorf("engage = %v,%v", f, stall)
	}
	if s.PowerFactor() != 0.5 {
		t.Errorf("freq-only power factor = %v, want 0.5", s.PowerFactor())
	}
	// Holds through the 2-sample policy delay, then disengages with
	// another resync stall.
	s.Sample(temps(109))
	f, stall = s.Sample(temps(109))
	if f != 0.5 || stall != 0 {
		t.Errorf("held sample = %v,%v, want 0.5,0", f, stall)
	}
	f, stall = s.Sample(temps(109))
	if f != 1 || stall != DefaultResyncCycles {
		t.Errorf("disengage = %v,%v", f, stall)
	}
}

func TestVoltageScalingCubicPower(t *testing.T) {
	s := NewVoltageScaling(110.3, 0.5, 1)
	if s.Name() != "vfscale" {
		t.Error("name")
	}
	s.Sample(temps(112))
	if got := s.PowerFactor(); math.Abs(got-0.125) > 1e-12 {
		t.Errorf("V/f power factor = %v, want 0.125", got)
	}
	s.Reset()
	if s.PowerFactor() != 1 || s.Engaged() {
		t.Error("reset did not clear scaling")
	}
}

func TestScalingPanicsOnBadFactor(t *testing.T) {
	for _, f := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("factor %v accepted", f)
				}
			}()
			NewFreqScaling(110, f, 1)
		}()
	}
}
