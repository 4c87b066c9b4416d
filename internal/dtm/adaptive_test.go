package dtm

import (
	"testing"

	"repro/internal/control"
)

func TestAdaptiveGainSlewsAndRecovers(t *testing.T) {
	a := NewAdaptiveGain(111.1)
	if got := a.Sample([]float64{100, 100}); got != 1 {
		t.Fatalf("cold core throttled: f=%v", got)
	}
	// Far above the setpoint the high gain engages: the factor must fall
	// fast and clamp at FMin.
	for i := 0; i < 10; i++ {
		a.Sample([]float64{115})
	}
	if a.f != a.FMin {
		t.Errorf("f=%v after sustained overshoot, want clamp at %v", a.f, a.FMin)
	}
	// Back below the setpoint it recovers toward full speed.
	for i := 0; i < 500; i++ {
		a.Sample([]float64{105})
	}
	if a.f != 1 {
		t.Errorf("f=%v after sustained headroom, want 1", a.f)
	}
	a.Sample([]float64{115})
	low := a.f
	a.Reset()
	if a.f != 1 || low >= 1 {
		t.Errorf("Reset left f=%v (pre-reset %v)", a.f, low)
	}
}

// The gain schedule must move faster outside the knee than inside it for
// the same sign of error.
func TestAdaptiveGainSchedule(t *testing.T) {
	near := NewAdaptiveGain(111.1)
	far := NewAdaptiveGain(111.1)
	near.Sample([]float64{111.3}) // |e| = 0.2 < knee
	far.Sample([]float64{112.6})  // |e| = 1.5 > knee
	dNear := 1 - near.f
	dFar := 1 - far.f
	if dNear <= 0 || dFar <= 0 {
		t.Fatalf("no throttle response: near %v far %v", dNear, dFar)
	}
	// Per unit error the far response must be KiHigh/KiLow times stronger.
	if dFar/1.5 <= 2*dNear/0.2 {
		t.Errorf("gain schedule flat: near %v/degree, far %v/degree", dNear/0.2, dFar/1.5)
	}
}

func budgetForTest(cores int) *PowerBudget {
	g := control.Gains{Kp: 0.5, Ki: 20000}
	return NewPowerBudget(cores, 20*float64(cores), g, 111.1, 0.2, 1000.0/1.5e9, 8)
}

func TestPowerBudgetRedistributes(t *testing.T) {
	b := budgetForTest(4)
	sum := 0.0
	for i := 0; i < 4; i++ {
		sum += b.alloc[i]
	}
	if diff := sum - b.Budget; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("initial allocations sum to %v, budget %v", sum, b.Budget)
	}
	// Core 0 hot at the setpoint, the rest cool: the global layer must
	// shift budget away from core 0, preserving the total.
	hot := []float64{111.1, 104, 104, 104}
	power := []float64{5, 5, 5, 5}
	duties := make([]float64, 4)
	b.SampleAll(hot, power, duties)
	if b.alloc[0] >= b.alloc[1] {
		t.Errorf("hot core alloc %v not below cool core alloc %v", b.alloc[0], b.alloc[1])
	}
	sum = 0
	for i := 0; i < 4; i++ {
		sum += b.alloc[i]
	}
	if diff := sum - b.Budget; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("allocations sum to %v after redistribution, budget %v", sum, b.Budget)
	}
	for i := 1; i < 4; i++ {
		if b.alloc[i] != b.alloc[1] {
			t.Errorf("equal-headroom cores unequal: alloc[%d]=%v alloc[1]=%v", i, b.alloc[i], b.alloc[1])
		}
	}
}

func TestPowerBudgetCapsOverdraw(t *testing.T) {
	b := budgetForTest(2)
	hot := []float64{104, 104} // cool: local PIs wind up to full duty
	duties := make([]float64, 2)
	for i := 0; i < 2000; i++ {
		b.SampleAll(hot, []float64{5, 5}, duties)
	}
	if duties[0] != 1 || duties[1] != 1 {
		t.Fatalf("cool wound-up duties %v, want full speed", duties)
	}
	// Core 0 draws twice its allocation; its duty must be capped at
	// alloc/power while core 1 stays at full speed.
	b.SampleAll(hot, []float64{40, 5}, duties)
	want := b.alloc[0] / 40
	if d := duties[0] - want; d > 1e-9 || d < -1e-9 {
		t.Errorf("overdrawing core duty %v, want cap %v", duties[0], want)
	}
	if duties[1] != 1 {
		t.Errorf("in-budget cool core duty %v, want 1", duties[1])
	}
}

func TestPowerBudgetReallocatesOnPeriodOnly(t *testing.T) {
	b := budgetForTest(2)
	duties := make([]float64, 2)
	power := []float64{5, 5}
	b.SampleAll([]float64{111.1, 104}, power, duties)
	skewed := b.alloc[0]
	// Mid-period the headroom picture inverts, but allocations must hold
	// until the next global tick.
	for i := 1; i < b.Period; i++ {
		b.SampleAll([]float64{104, 111.1}, power, duties)
		if b.alloc[0] != skewed {
			t.Fatalf("alloc moved mid-period at sample %d", i)
		}
	}
	b.SampleAll([]float64{104, 111.1}, power, duties)
	if b.alloc[0] <= skewed {
		t.Errorf("alloc %v did not recover after period tick (was %v)", b.alloc[0], skewed)
	}
}

func TestPowerBudgetSampleAllocFree(t *testing.T) {
	b := budgetForTest(4)
	hot := []float64{111, 108, 104, 112}
	power := []float64{8, 6, 3, 9}
	duties := make([]float64, 4)
	allocs := testing.AllocsPerRun(100, func() {
		b.SampleAll(hot, power, duties)
	})
	if allocs != 0 {
		t.Errorf("SampleAll allocates %v/op", allocs)
	}
}
