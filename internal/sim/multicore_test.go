package sim_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/sensor"
	"repro/internal/sim"
)

// steadyMulticore builds a multicore sim on the hot-neighbor scenario with
// effectively unbounded budgets and warms it past construction transients.
func steadyMulticore(tb testing.TB, policy string, cores int, mutate func(*sim.MulticoreConfig)) *sim.Multicore {
	tb.Helper()
	cfg, err := bench.NewMulticoreRun("hotneighbor", policy, cores, 1<<60)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.MaxCycles = 1 << 62
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := sim.NewMulticore(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		s.Step()
	}
	return s
}

// TestZeroAllocMulticoreStep gates the multicore hot loop: per-core
// pipelines, power models, DVFS tick gating, the die-wide thermal fast
// path with its cross-core window flushes, per-core sensors and every
// controller family must all step without heap allocations.
func TestZeroAllocMulticoreStep(t *testing.T) {
	// The allocation contract is enforced by the non-race alloc gates
	// (CI verify + multicore jobs); under the ~15x race detector the
	// six warmed 2-core variants only burn package budget.
	skipMulticoreMatrixUnderRace(t)
	variants := []struct {
		name   string
		policy string
		mutate func(*sim.MulticoreConfig)
	}{
		{"none", "none", nil},
		{"pid", "PID", nil},
		{"agi", "agi", nil},
		{"budget", "budget", nil},
		{"pid_sensors", "PID", func(cfg *sim.MulticoreConfig) {
			cfg.Sensors = sensor.UniformBank(2, int(floorplan.NumBlocks),
				sensor.Sensor{Offset: 0.05, Quantum: 0.1})
		}},
		{"pid_euler", "PID", func(cfg *sim.MulticoreConfig) {
			cfg.ThermalStride = 1
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			s := steadyMulticore(t, v.policy, 2, v.mutate)
			allocs := testing.AllocsPerRun(20, func() {
				for i := 0; i < 5000; i++ {
					s.Step()
				}
			})
			if allocs != 0 {
				t.Errorf("Step allocates %v bytes-ops per 5000 cycles", allocs)
			}
		})
	}
	// A group: the uncontrolled run leads, and the PID, agi and budget
	// members step their controllers on its observations each sample.
	t.Run("group", func(t *testing.T) {
		var cfgs []sim.MulticoreConfig
		for _, policy := range []string{"none", "PID", "agi", "budget"} {
			cfg, err := bench.NewMulticoreRun("hotneighbor", policy, 2, 1<<60)
			if err != nil {
				t.Fatal(err)
			}
			cfg.MaxCycles = 1 << 62
			cfgs = append(cfgs, cfg)
		}
		s, err := sim.NewMulticoreGroup(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			s.Step()
		}
		allocs := testing.AllocsPerRun(20, func() {
			for i := 0; i < 5000; i++ {
				s.Step()
			}
		})
		if allocs != 0 {
			t.Errorf("grouped Step allocates %v bytes-ops per 5000 cycles", allocs)
		}
		if !s.InGroup(1) || !s.InGroup(2) {
			t.Error("PID and agi left the cold group: member stepping was not measured")
		}
	})
}

// TestMulticoreControllersEngage pins the end-to-end behavior the face-off
// tables report: uncontrolled hot-neighbor runs spend cycles in emergency,
// every controller family reduces them, and the adjustable-gain DVFS
// controller actually moves the hot core's frequency.
func TestMulticoreControllersEngage(t *testing.T) {
	skipMulticoreMatrixUnderRace(t)
	run := func(policy string) *sim.MulticoreResult {
		cfg, err := bench.NewMulticoreRun("hotneighbor", policy, 2, 400000)
		if err != nil {
			t.Fatal(err)
		}
		init := make([]float64, 2*int(floorplan.NumBlocks))
		for i := range init {
			init[i] = 111.0 // near threshold so the hot core crosses quickly
		}
		cfg.InitTemps = init
		res, err := sim.RunMulticore(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	none := run("none")
	if none.EmergencyCycles == 0 {
		t.Fatal("uncontrolled hot-neighbor run never hit an emergency; scenario too cold to discriminate policies")
	}
	if none.PerCore[0].EmergencyCycles == 0 {
		t.Error("hot core saw no emergencies")
	}
	for _, policy := range []string{"PID", "agi", "budget"} {
		res := run(policy)
		if res.EmergencyCycles >= none.EmergencyCycles {
			t.Errorf("%s: emergencies %d not below uncontrolled %d",
				policy, res.EmergencyCycles, none.EmergencyCycles)
		}
		hot := &res.PerCore[0]
		switch policy {
		case "PID", "budget":
			if hot.AvgDuty >= 0.999 {
				t.Errorf("%s: hot core duty %v never engaged", policy, hot.AvgDuty)
			}
		case "agi":
			if hot.AvgFreq >= 0.999 {
				t.Errorf("agi: hot core frequency %v never engaged", hot.AvgFreq)
			}
			if hot.AvgDuty < 0.999 {
				t.Errorf("agi: duty %v moved but agi only commands frequency", hot.AvgDuty)
			}
		}
	}
}

// TestMulticoreValidation pins the config validation seams.
func TestMulticoreValidation(t *testing.T) {
	if _, err := sim.NewMulticore(sim.MulticoreConfig{}); err == nil {
		t.Error("accepted empty config")
	}
	cfg, err := bench.NewMulticoreRun("hotneighbor", "PID", 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Managers = bad.Managers[:1]
	if _, err := sim.NewMulticore(bad); err == nil {
		t.Error("accepted manager count != core count")
	}
	bad = cfg
	budgetCfg, err := bench.NewMulticoreRun("hotneighbor", "budget", 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	bad.Budget = budgetCfg.Budget
	if _, err := sim.NewMulticore(bad); err == nil {
		t.Error("accepted Budget alongside Managers")
	}
	bad = cfg
	bad.Sensors = sensor.UniformBank(3, int(floorplan.NumBlocks), sensor.Sensor{})
	if _, err := sim.NewMulticore(bad); err == nil {
		t.Error("accepted sensor bank with wrong core count")
	}
	bad = cfg
	bad.InitTemps = []float64{100}
	if _, err := sim.NewMulticore(bad); err == nil {
		t.Error("accepted short InitTemps")
	}
}

// TestMulticoreCacheKey checks the multicore run key on every registered
// scenario, policy and two core counts: independently built identical
// configurations share a key, every cell has its own, and changing the
// budget or thermal stride changes it.
func TestMulticoreCacheKey(t *testing.T) {
	build := func(scenario, policy string, cores int) sim.MulticoreConfig {
		t.Helper()
		cfg, err := bench.NewMulticoreRun(scenario, policy, cores, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	seen := map[string]string{}
	for _, scenario := range bench.MulticoreWorkloads() {
		for _, policy := range bench.MulticorePolicies() {
			for _, cores := range []int{1, 2} {
				cell := fmt.Sprintf("%s/%s/%d", scenario, policy, cores)
				key := sim.MulticoreCacheKey(build(scenario, policy, cores))
				if again := sim.MulticoreCacheKey(build(scenario, policy, cores)); again != key {
					t.Errorf("%s: identical configs hash differently", cell)
				}
				if prev, dup := seen[key]; dup {
					t.Errorf("%s and %s share a key", prev, cell)
				}
				seen[key] = cell
			}
		}
	}
	base := build("hotneighbor", "PID", 2)
	key := sim.MulticoreCacheKey(base)
	for name, mutate := range map[string]func(*sim.MulticoreConfig){
		"MaxInsts":      func(c *sim.MulticoreConfig) { c.MaxInsts++ },
		"ThermalStride": func(c *sim.MulticoreConfig) { c.ThermalStride = 1 },
	} {
		cfg := build("hotneighbor", "PID", 2)
		mutate(&cfg)
		if sim.MulticoreCacheKey(cfg) == key {
			t.Errorf("%s: mutation does not change the key", name)
		}
	}
}
