package sensor

import (
	"math"
	"testing"
)

func TestIdealSensorPassesThrough(t *testing.T) {
	s := Sensor{}
	if got := s.Read(111.25); got != 111.25 {
		t.Errorf("ideal read = %v", got)
	}
}

func TestSensorOffsetAndQuantum(t *testing.T) {
	s := Sensor{Offset: 0.5, Quantum: 0.25}
	got := s.Read(110.9) // 111.4 -> quantized to 111.5? 111.4/0.25=445.6 -> 446*0.25=111.5
	if math.Abs(got-111.5) > 1e-9 {
		t.Errorf("read = %v, want 111.5", got)
	}
}

// structProxy builds a Proxy whose chip-wide half never triggers, so a
// test can read the per-structure half alone.
func structProxy(rs []float64, window int, sink, threshold float64) *Proxy {
	return NewProxy(rs, window, sink, threshold, math.Inf(1))
}

func TestStructProxyTriggersAtImpliedTemp(t *testing.T) {
	// One block: R=2, sink=100, threshold=111.3 => triggers when
	// Pavg > 5.65 W.
	p := structProxy([]float64{2.0}, 4, 100, 111.3)
	if hot, _ := p.Step([]float64{5.0}, 0); hot {
		t.Error("triggered below threshold")
	}
	// Window now [5,6,6,6]: avg 5.75 -> implied 111.5 > 111.3.
	var hot bool
	for i := 0; i < 3; i++ {
		hot, _ = p.Step([]float64{6.0}, 0)
	}
	if !hot {
		t.Error("did not trigger at 5.75 W average")
	}
	if it := p.sink + p.avg(0)*p.r[0]; math.Abs(it-111.5) > 1e-9 {
		t.Errorf("implied temp = %v, want 111.5", it)
	}
}

func TestStructProxyPanicsOnMismatch(t *testing.T) {
	p := structProxy([]float64{1, 2}, 4, 100, 111.3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Step did not panic")
		}
	}()
	p.Step([]float64{1}, 0)
}

func TestNewStructProxyPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty proxy accepted")
		}
	}()
	structProxy(nil, 4, 100, 111.3)
}

func TestChipProxyThreshold(t *testing.T) {
	p := NewProxy([]float64{1}, 2, 0, math.Inf(1), 47)
	if _, hot := p.Step([]float64{0}, 46); hot {
		t.Error("triggered below threshold")
	}
	p.Step([]float64{0}, 50)
	if _, hot := p.Step([]float64{0}, 50); !hot {
		t.Error("did not trigger above threshold")
	}
	if got := p.avg(1); got != 50 {
		t.Errorf("avg = %v", got)
	}
}

// The boxcar's lag is the proxy's core flaw: a short hot burst inside a
// long window is invisible — the "missed emergency" failure mode of
// Section 6.
func TestLongWindowMissesBurst(t *testing.T) {
	long := structProxy([]float64{2.0}, 1000, 100, 111.3)
	short := structProxy([]float64{2.0}, 10, 100, 111.3)
	longHot, shortHot := false, false
	for i := 0; i < 2000; i++ {
		p := 1.0
		if i >= 1500 && i < 1520 {
			p = 10.0 // 20-cycle burst, steady state would be 120 C
		}
		if hot, _ := long.Step([]float64{p}, 0); hot {
			longHot = true
		}
		if hot, _ := short.Step([]float64{p}, 0); hot {
			shortHot = true
		}
	}
	if longHot {
		t.Error("1000-cycle window saw the 20-cycle burst; lag model broken")
	}
	if !shortHot {
		t.Error("10-cycle window missed the burst")
	}
}

func TestComparisonTallies(t *testing.T) {
	var c Comparison
	c.Record(true, true)   // agree hot
	c.Record(true, false)  // missed
	c.Record(false, true)  // false trigger
	c.Record(false, false) // agree cool
	if c.Cycles != 4 || c.TrueEmergency != 2 || c.ProxyTrigger != 2 {
		t.Errorf("tallies = %+v", c)
	}
	if c.Missed != 1 || c.False != 1 {
		t.Errorf("missed/false = %d/%d", c.Missed, c.False)
	}
	if c.MissedFrac() != 0.5 {
		t.Errorf("missed frac = %v", c.MissedFrac())
	}
	if c.FalseFrac() != 0.25 {
		t.Errorf("false frac = %v", c.FalseFrac())
	}
	var empty Comparison
	if empty.MissedFrac() != 0 || empty.FalseFrac() != 0 {
		t.Error("empty comparison fractions not 0")
	}
}

func TestSelectSensorsCoversHotBlocks(t *testing.T) {
	// Three blocks: #0 hottest in the first half, #2 hottest in the
	// second half, #1 never hottest.
	series := [][]float64{
		{112, 112, 112, 104, 104, 104},
		{106, 106, 106, 106, 106, 106},
		{103, 103, 103, 111, 111, 111},
	}
	res, err := SelectSensors(series, 2)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{}
	for _, i := range res.Blocks {
		got[i] = true
	}
	if !got[0] || !got[2] {
		t.Errorf("selected %v, want {0,2}", res.Blocks)
	}
	if res.MaxError != 0 {
		t.Errorf("max error = %v, want 0 with both hot blocks covered", res.MaxError)
	}
}

func TestSelectSensorsOneSensorPicksWorstCaseMinimizer(t *testing.T) {
	series := [][]float64{
		{112, 100}, // great at t0, terrible at t1
		{109, 109}, // decent everywhere
	}
	res, err := SelectSensors(series, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sensor 0 alone: worst error = 110-ish... trueMax = {112,109};
	// with sensor 0: errors {0, 9}; with sensor 1: {3, 0}. Worst-case
	// minimizer is sensor 1.
	if len(res.Blocks) != 1 || res.Blocks[0] != 1 {
		t.Errorf("selected %v, want [1]", res.Blocks)
	}
	if res.MaxError != 3 {
		t.Errorf("max error = %v, want 3", res.MaxError)
	}
}

func TestSelectSensorsValidation(t *testing.T) {
	if _, err := SelectSensors(nil, 1); err == nil {
		t.Error("no traces accepted")
	}
	if _, err := SelectSensors([][]float64{{}}, 1); err == nil {
		t.Error("empty traces accepted")
	}
	if _, err := SelectSensors([][]float64{{1}, {1, 2}}, 1); err == nil {
		t.Error("ragged traces accepted")
	}
	if _, err := SelectSensors([][]float64{{1}}, 5); err == nil {
		t.Error("k > blocks accepted")
	}
}

func TestSelectSensorsFullSetZeroError(t *testing.T) {
	series := [][]float64{{5, 1}, {1, 5}, {3, 3}}
	res, err := SelectSensors(series, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxError != 0 || res.MeanError != 0 {
		t.Errorf("full coverage error = %v/%v", res.MaxError, res.MeanError)
	}
}

func TestSensorNegativeOffsetRounding(t *testing.T) {
	// A calibration offset that drives the reading negative used to be
	// mis-rounded by int64(x+0.5) truncating toward zero.
	s := Sensor{Offset: -102, Quantum: 1}
	if got := s.Read(100.4); got != -2 { // -1.6 quanta -> nearest is -2
		t.Errorf("Read(100.4) with offset -102 = %v, want -2", got)
	}
	if got := s.Read(100.8); got != -1 { // -1.2 quanta -> nearest is -1
		t.Errorf("Read(100.8) with offset -102 = %v, want -1", got)
	}
	// Positive readings keep the old behavior.
	s = Sensor{Quantum: 0.25}
	if got := s.Read(111.4); math.Abs(got-111.5) > 1e-9 {
		t.Errorf("Read(111.4) = %v, want 111.5", got)
	}
}
