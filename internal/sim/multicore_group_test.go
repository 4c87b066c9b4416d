package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/sensor"
	"repro/internal/sim"
)

// faceOffCell builds one cell of the multicore face-off: every multicore
// policy on one scenario and core count, in bench.MulticorePolicies order
// (the uncontrolled run first, so it leads a group). A nonzero init
// starts every block of the die at that temperature.
func faceOffCell(t *testing.T, scenario string, cores int, insts, stride uint64, init float64) []sim.MulticoreConfig {
	t.Helper()
	var cfgs []sim.MulticoreConfig
	for _, policy := range bench.MulticorePolicies() {
		cfg, err := bench.NewMulticoreRun(scenario, policy, cores, insts)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ThermalStride = stride
		if init != 0 {
			cfg.InitTemps = make([]float64, cores*int(floorplan.NumBlocks))
			for i := range cfg.InitTemps {
				cfg.InitTemps[i] = init
			}
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// checkGroupMatchesSolo runs cfgs as one group and requires every
// member's result to marshal byte for byte like its solo run. It returns
// which members were still in the group when the lead finished. The
// configs are reused across runs: every run resets their controllers.
func checkGroupMatchesSolo(t *testing.T, name string, cfgs []sim.MulticoreConfig) []bool {
	t.Helper()
	ctx := context.Background()
	s, err := sim.NewMulticoreGroup(cfgs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := s.Run(ctx); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	shared := make([]bool, len(cfgs))
	for i := range cfgs {
		shared[i] = s.InGroup(i)
	}
	group, err := sim.RunMulticoreGroup(ctx, cfgs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, cfg := range cfgs {
		solo, err := sim.RunMulticore(ctx, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, _ := json.Marshal(solo)
		got, _ := json.Marshal(group[i])
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s (in group at end: %v): group result differs from solo\n got %s\nwant %s",
				name, solo.Policy, shared[i], got, want)
		}
	}
	return shared
}

// TestMulticoreGroupMatchesSolo is the multicore group's equivalence gate.
// Every cell of the TestGoldenMulticore matrix runs as one group; that
// matrix starts warm, so its controllers actuate and leave. One cold
// face-off cell at the benchmark's tables budget then checks that the
// group shares: the controllers that never actuate there stay to the end,
// and the budget controller, which does actuate, leaves.
func TestMulticoreGroupMatchesSolo(t *testing.T) {
	skipMulticoreMatrixUnderRace(t)
	left := 0
	for _, scenario := range []string{"hotneighbor", "staggered"} {
		for _, cores := range []int{1, 2, 4} {
			for _, stride := range []uint64{1, 0} {
				name := fmt.Sprintf("%s/c%d/stride%d", scenario, cores, stride)
				cfgs := faceOffCell(t, scenario, cores, goldenMulticoreInsts, stride, goldenMulticoreInit)
				for _, in := range checkGroupMatchesSolo(t, name, cfgs) {
					if !in {
						left++
					}
				}
			}
		}
	}
	if left == 0 {
		t.Error("no member ever left a warm group: divergence is never exercised")
	}

	// Interrupt-triggered PID commands the same duties as direct PID but
	// stalls the core on each engagement change: stall cycles alone make
	// it leave a group that direct PID leads.
	var pair []sim.MulticoreConfig
	for _, mech := range []dtm.Mechanism{dtm.Direct, dtm.Interrupt} {
		cfg := faceOffCell(t, "hotneighbor", 2, goldenMulticoreInsts, 0, goldenMulticoreInit)[1]
		for _, m := range cfg.Managers {
			m.Mechanism = mech
		}
		pair = append(pair, cfg)
	}
	if shared := checkGroupMatchesSolo(t, "interrupt/hotneighbor/c2", pair); shared[1] {
		t.Error("interrupt-triggered PID stayed in direct PID's group despite its stalls")
	}

	// With non-ideal sensors, the uncontrolled lead reads the bank only
	// for its members' controllers.
	sensed := faceOffCell(t, "hotneighbor", 2, goldenMulticoreInsts, 0, goldenMulticoreInit)
	for i := range sensed {
		sensed[i].Sensors = sensor.UniformBank(2, int(floorplan.NumBlocks),
			sensor.Sensor{Offset: 0.05, Quantum: 0.1})
	}
	checkGroupMatchesSolo(t, "sensors/hotneighbor/c2", sensed)

	cfgs := faceOffCell(t, "hotneighbor", 2, 10_000, 0, 0)
	shared := checkGroupMatchesSolo(t, "cold/hotneighbor/c2", cfgs)
	for i, policy := range bench.MulticorePolicies() {
		if want := policy != "budget"; shared[i] != want {
			t.Errorf("cold face-off cell: %s in group at end = %v, want %v", policy, shared[i], want)
		}
	}
}

// TestMulticoreGroupable checks which configs may share a group: those
// differing only in their controllers, and nothing that changes the
// simulated die or its sampling schedule.
func TestMulticoreGroupable(t *testing.T) {
	build := func(scenario, policy string) sim.MulticoreConfig {
		t.Helper()
		cfg, err := bench.NewMulticoreRun(scenario, policy, 2, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	lead := build("hotneighbor", "none")
	for _, policy := range bench.MulticorePolicies() {
		cfg := build("hotneighbor", policy)
		if !sim.MulticoreGroupable(&lead, &cfg) {
			t.Errorf("%s cannot join the uncontrolled run's group", policy)
		}
	}
	for name, mutate := range map[string]func(*sim.MulticoreConfig){
		"workload":      func(c *sim.MulticoreConfig) { *c = build("staggered", "PID") },
		"MaxInsts":      func(c *sim.MulticoreConfig) { c.MaxInsts++ },
		"ThermalStride": func(c *sim.MulticoreConfig) { c.ThermalStride = 1 },
		"InitTemps": func(c *sim.MulticoreConfig) {
			c.InitTemps = make([]float64, 2*int(floorplan.NumBlocks))
		},
		"Sensors": func(c *sim.MulticoreConfig) {
			c.Sensors = sensor.UniformBank(2, int(floorplan.NumBlocks), sensor.Sensor{Offset: 0.05})
		},
		"interval": func(c *sim.MulticoreConfig) {
			for _, m := range c.Managers {
				m.Interval *= 2
			}
		},
	} {
		cfg := build("hotneighbor", "PID")
		mutate(&cfg)
		if sim.MulticoreGroupable(&lead, &cfg) || sim.MulticoreGroupable(&cfg, &lead) {
			t.Errorf("%s: differing config accepted into a group", name)
		}
		if _, err := sim.NewMulticoreGroup([]sim.MulticoreConfig{lead, cfg}); err == nil {
			t.Errorf("%s: NewMulticoreGroup accepted a differing member", name)
		}
	}
}
