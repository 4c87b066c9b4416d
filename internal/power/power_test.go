package power

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/pipeline"
)

func newModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestGatingStyleStrings(t *testing.T) {
	if GateNone.String() != "cc0" || GateIdeal.String() != "cc2" || GateResidual10.String() != "cc3" {
		t.Error("gating style names wrong")
	}
}

func TestArrayEnergiesOrdering(t *testing.T) {
	tech := DefaultTech()
	a := ArraySpec{Rows: 64, Bits: 64, ReadPorts: 2, WritePorts: 2, CAM: true}
	r, w, m := a.ReadEnergy(tech), a.WriteEnergy(tech), a.MatchEnergy(tech)
	if r <= 0 || w <= 0 || m <= 0 {
		t.Fatalf("non-positive energies: %g %g %g", r, w, m)
	}
	// Writes drive full bitline swing; reads only the sense swing.
	if w <= r {
		t.Errorf("write energy %g <= read energy %g", w, r)
	}
}

func TestArrayEnergyScalesWithGeometry(t *testing.T) {
	tech := DefaultTech()
	small := ArraySpec{Rows: 64, Bits: 32, ReadPorts: 1, WritePorts: 1}
	big := ArraySpec{Rows: 4096, Bits: 128, ReadPorts: 1, WritePorts: 1}
	if big.ReadEnergy(tech) <= small.ReadEnergy(tech) {
		t.Error("bigger array not more expensive to read")
	}
}

func TestMatchEnergyPanicsOnNonCAM(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatchEnergy on non-CAM did not panic")
		}
	}()
	ArraySpec{Rows: 8, Bits: 8}.MatchEnergy(DefaultTech())
}

func TestNewRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tech.FreqHz = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero frequency accepted")
	}
	cfg = DefaultConfig()
	cfg.Blocks = nil
	if _, err := New(cfg); err == nil {
		t.Error("empty block set accepted")
	}
}

// The calibration invariant: at maximum activity every block dissipates
// exactly its Table 3 peak power.
func TestPeakCalibration(t *testing.T) {
	m := newModel(t)
	pc := pipeline.DefaultConfig()
	act := pipeline.Activity{
		FetchEnabled:  true,
		Fetched:       pc.FetchWidth,
		BPredAccess:   pc.FetchWidth + 2,
		WindowInserts: pc.DecodeWidth,
		WindowIssues:  pc.IssueWidth,
		WindowWakeups: pc.IssueWidth,
		LSQInserts:    pc.DecodeWidth,
		LSQSearches:   pc.MemPorts,
		RegReads:      2 * pc.IssueWidth,
		RegWrites:     pc.IssueWidth,
		IntOps:        pc.IntIssue,
		FPOps:         pc.FPIssue,
		DCacheAccess:  pc.MemPorts + 2,
		Commits:       pc.CommitWidth,
	}
	out := make([]float64, m.NumBlocks())
	// Full-port activity far exceeds the hot-rate calibration anchor, so
	// once the smoothing filter converges every block clamps at its
	// Table 3 peak.
	for i := 0; i < 2000; i++ {
		m.BlockPower(&act, out)
	}
	for i, p := range out {
		want := 0.0
		for _, b := range floorplan.Default() {
			if b.ID == m.blocks[i].id {
				want = b.PeakPower
			}
		}
		if math.Abs(p-want) > 1e-9 {
			t.Errorf("%v peak power = %v, want %v", m.blocks[i].id, p, want)
		}
	}
}

func TestIdlePowerByGatingStyle(t *testing.T) {
	var idle pipeline.Activity
	for _, tc := range []struct {
		style GatingStyle
		frac  float64
	}{
		{GateNone, 1.0},
		{GateIdeal, 0.0},
		{GateResidual10, 0.1},
	} {
		cfg := DefaultConfig()
		cfg.Gating = tc.style
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, m.NumBlocks())
		m.BlockPower(&idle, out)
		for i, p := range out {
			want := tc.frac * blockPeak(m.blocks[i].id)
			if math.Abs(p-want) > 1e-9 {
				t.Errorf("%v idle %v power = %v, want %v", tc.style, m.blocks[i].id, p, want)
			}
		}
	}
}

func blockPeak(id floorplan.BlockID) float64 {
	for _, b := range floorplan.Default() {
		if b.ID == id {
			return b.PeakPower
		}
	}
	return 0
}

func TestPowerMonotoneInActivity(t *testing.T) {
	// Two fresh models (the smoothing filter is stateful): converge each
	// on its own steady activity level and compare.
	run := func(act pipeline.Activity) []float64 {
		m := newModel(t)
		out := make([]float64, m.NumBlocks())
		for i := 0; i < 2000; i++ {
			m.BlockPower(&act, out)
		}
		return out
	}
	out1 := run(pipeline.Activity{IntOps: 1, DCacheAccess: 1, WindowIssues: 1})
	out2 := run(pipeline.Activity{IntOps: 4, DCacheAccess: 3, WindowIssues: 5, WindowInserts: 3})
	m := newModel(t)
	for i := range out1 {
		if out2[i] < out1[i]-1e-12 {
			t.Errorf("%v power decreased with more activity", m.blocks[i].id)
		}
	}
}

func TestPowerNeverExceedsPeak(t *testing.T) {
	m := newModel(t)
	crazy := pipeline.Activity{
		BPredAccess: 1000, WindowInserts: 1000, WindowIssues: 1000,
		WindowWakeups: 1000, LSQInserts: 1000, LSQSearches: 1000,
		RegReads: 1000, RegWrites: 1000, IntOps: 1000, FPOps: 1000,
		DCacheAccess: 1000,
	}
	out := make([]float64, m.NumBlocks())
	for n := 0; n < 100; n++ {
		m.BlockPower(&crazy, out)
		for i, p := range out {
			if p > blockPeak(m.blocks[i].id)+1e-9 {
				t.Errorf("%v power %v exceeds peak", m.blocks[i].id, p)
			}
		}
	}
}

func TestBlockPowerPanicsOnWrongLength(t *testing.T) {
	m := newModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("BlockPower with short slice did not panic")
		}
	}()
	m.BlockPower(&pipeline.Activity{}, make([]float64, 1))
}

func TestChipPowerIncludesUntrackedShare(t *testing.T) {
	m := newModel(t)
	out := make([]float64, m.NumBlocks())
	idle := pipeline.Activity{}
	m.BlockPower(&idle, out)
	chipIdle := m.ChipPower(&idle, out)
	var blockSum float64
	for _, p := range out {
		blockSum += p
	}
	if chipIdle <= blockSum {
		t.Error("chip power does not include untracked base share")
	}
	busy := pipeline.Activity{FetchEnabled: true, Fetched: 4, Commits: 6}
	m.BlockPower(&busy, out)
	chipBusy := m.ChipPower(&busy, out)
	if chipBusy <= chipIdle {
		t.Error("chip power not higher when busy")
	}
	if peak := peakChipPower(m); chipBusy > peak+1e-9 {
		t.Errorf("busy chip power %v exceeds peak %v", chipBusy, peak)
	}
}

// The whole-chip peak must land in the paper's regime (several tens of
// watts, around the 47 W chip-wide trigger and the cited ~55 W peak).
func TestChipPeakInPaperRange(t *testing.T) {
	m := newModel(t)
	peak := peakChipPower(m)
	if peak < 50 || peak > 100 {
		t.Errorf("chip peak = %v W, want ~50-100 W", peak)
	}
}

func TestModelWorksWithZeroPipelineConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pipeline = pipeline.Config{} // must fall back to defaults
	if _, err := New(cfg); err != nil {
		t.Fatalf("zero pipeline config rejected: %v", err)
	}
}

// peakChipPower returns m's calibrated whole-chip peak.
func peakChipPower(m *Model) float64 {
	total := m.otherBaseW + m.otherDynW
	for _, b := range m.blocks {
		total += b.peakW
	}
	return total
}
