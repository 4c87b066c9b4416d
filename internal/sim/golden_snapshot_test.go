package sim

// The solo golden matrix. TestGoldenSolo (golden_test.go, package
// sim_test) runs it and compares the marshaled results byte for byte
// against testdata/golden.json; GoldenMatrix is exported so that external
// test file can reach the in-package profile helpers.

import (
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func fpProfile() workload.Profile {
	return workload.Profile{
		Name: "fpmix",
		Seed: 1234,
		Phases: []workload.Phase{
			{
				Insts:            200_000,
				Mix:              workload.Mix{IntALU: 20, FPALU: 25, FPMult: 10, FPDiv: 1, Load: 24, Store: 8, Branch: 8, Call: 2},
				DepMean:          6,
				LoopIters:        40,
				BodySize:         48,
				NumLoops:         12,
				BranchRandomFrac: 0.15,
				BranchBias:       0.45,
				WorkingSet:       2 << 20,
				StreamFrac:       0.4,
			},
			{
				Insts:            150_000,
				Mix:              workload.Mix{IntALU: 40, IntMult: 4, IntDiv: 1, Load: 20, Store: 12, Branch: 18, Call: 3},
				DepMean:          3,
				LoopIters:        25,
				BodySize:         32,
				NumLoops:         30,
				BranchRandomFrac: 0.3,
				BranchBias:       0.5,
				WorkingSet:       512 << 10,
				StreamFrac:       0.2,
			},
		},
	}
}

// GoldenMatrix returns the solo configurations the committed golden pins:
// every policy family, each per-cycle feature (leakage, scaling, hierarchy,
// lateral flow, proxies, sensors, monitored blocks, the coupled sink,
// traces), on hot, cold and FP workloads.
func GoldenMatrix() map[string]Config {
	const n = 300_000
	mkInterrupt := func() *dtm.Manager {
		m := dtm.NewManager(dtm.NewToggle1(110.3, 5))
		m.Mechanism = dtm.Interrupt
		return m
	}
	// Telemetry sinks only read the run: hot/pi+telemetry pins a result
	// byte-identical to hot/pi's, and hot/trace one identical to
	// hot/none's apart from its series.
	mkMetrics := func() *telemetry.SimMetrics { return telemetry.NewSimMetrics(telemetry.NewRegistry()) }
	mkRecorder := func() *telemetry.Recorder { return telemetry.NewRecorder(discard{}, int(floorplan.NumBlocks), 64) }
	return map[string]Config{
		"hot/none":      {Workload: hotProfile(), MaxInsts: n},
		"hot/pi":        {Workload: hotProfile(), MaxInsts: n, Manager: newPIManager(111.1)},
		"hot/toggle1":   {Workload: hotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewToggle1(110.3, 5))},
		"hot/manual":    {Workload: hotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewManual(110.3, 111.3))},
		"hot/throttle":  {Workload: hotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewThrottle(110.3, 1, 5))},
		"hot/specctl":   {Workload: hotProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewSpecControl(110.3, 1, 5))},
		"hot/interrupt": {Workload: hotProfile(), MaxInsts: n, Manager: mkInterrupt()},
		"hot/leak":      {Workload: hotProfile(), MaxInsts: n, Leakage: power.DefaultLeakage()},
		"hot/fscale":    {Workload: hotProfile(), MaxInsts: n, Scaling: dtm.NewFreqScaling(110.3, 0.5, 5)},
		"hot/hier": {Workload: hotProfile(), MaxInsts: n,
			Hierarchy: dtm.NewHierarchy(&dtm.Toggle{Trigger: 110.3, EngagedDuty: 0.97, PolicyDelay: 5},
				dtm.NewVoltageScaling(111.2, 0.5, 10), 111.2)},
		"hot/tang":    {Workload: hotProfile(), MaxInsts: n, Tangential: true},
		"hot/proxies": {Workload: hotProfile(), MaxInsts: n, ProxyWindows: []int{10_000, 100_000}},
		"hot/sensor": {Workload: hotProfile(), MaxInsts: n, Manager: newPIManager(111.1),
			Sensor: sensor.Sensor{Offset: -0.4, Quantum: 0.25}},
		"hot/monitored": {Workload: hotProfile(), MaxInsts: n, Manager: newPIManager(111.1),
			MonitoredBlocks: []floorplan.BlockID{floorplan.IntExec, floorplan.BPred}},
		"hot/sink":   {Workload: hotProfile(), MaxInsts: n, CoupleChipSink: true},
		"hot/trace":  {Workload: hotProfile(), MaxInsts: n, TraceStride: 1000},
		"cold/none":  {Workload: coldProfile(), MaxInsts: n},
		"cold/pi":    {Workload: coldProfile(), MaxInsts: n, Manager: newPIManager(111.1)},
		"fp/none":    {Workload: fpProfile(), MaxInsts: n},
		"fp/pi":      {Workload: fpProfile(), MaxInsts: n, Manager: newPIManager(111.1)},
		"fp/toggle2": {Workload: fpProfile(), MaxInsts: n, Manager: dtm.NewManager(dtm.NewToggle2(110.3, 5))},
		"fp/leak":    {Workload: fpProfile(), MaxInsts: n, Leakage: power.DefaultLeakage()},

		"hot/none+euler":   {Workload: hotProfile(), MaxInsts: n, ThermalStride: 1},
		"hot/fscale+euler": {Workload: hotProfile(), MaxInsts: n, ThermalStride: 1, Scaling: dtm.NewFreqScaling(110.3, 0.5, 5)},
		"hot/pi+telemetry": {Workload: hotProfile(), MaxInsts: n, Manager: newPIManager(111.1),
			Metrics: mkMetrics(), Trace: mkRecorder(), TraceInterval: 1500},
	}
}
