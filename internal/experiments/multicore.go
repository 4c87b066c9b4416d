package experiments

import (
	"context"
	"fmt"

	"repro/internal/bench"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// mcSpec identifies one multicore simulation in a face-off batch.
type mcSpec struct {
	scenario string
	policy   string
	cores    int
}

// RunMulticoreConfigs runs multicore configs through the worker pool. It
// groups them by sim.MulticoreGroupable, the first config of a group
// leading, and runs each group as one job through sim.RunMulticoreGroup,
// so configs that differ only in controllers share one die simulation
// until their actuation diverges. Results are byte-identical to one
// sim.RunMulticore per config and come back in cfgs order. Each config
// must own its controllers.
func RunMulticoreConfigs(p Params, cfgs []sim.MulticoreConfig) ([]*sim.MulticoreResult, error) {
	var groups [][]int // positions in cfgs; a group's first member leads
	for i := range cfgs {
		g := 0
		for g < len(groups) && !sim.MulticoreGroupable(&cfgs[groups[g][0]], &cfgs[i]) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	opts := runner.Options{Workers: p.Workers, Progress: p.Progress}
	outs, err := runner.Map(p.ctx(), opts, groups,
		func(ctx context.Context, idx []int) ([]*sim.MulticoreResult, error) {
			members := make([]sim.MulticoreConfig, len(idx))
			for j, i := range idx {
				members[j] = cfgs[i]
			}
			return sim.RunMulticoreGroup(ctx, members)
		})
	if err != nil {
		return nil, err
	}
	res := make([]*sim.MulticoreResult, len(cfgs))
	for g, idx := range groups {
		for j, i := range idx {
			res[i] = outs[g][j]
		}
	}
	return res, nil
}

// MulticoreFaceOff runs the multicore controller face-off: every
// core-interaction scenario at every core count under every multicore
// policy (the paper's PID replicated per core vs the adjustable-gain
// integral DVFS controller vs the hierarchical power budget), reporting
// throughput against the uncontrolled baseline of the same cell alongside
// the thermal outcome. Insts is the per-core budget.
func MulticoreFaceOff(p Params, coreCounts []int) (*stats.Table, error) {
	if len(coreCounts) == 0 {
		coreCounts = []int{1, 2, 4}
	}
	scenarios := bench.MulticoreWorkloads()
	policies := bench.MulticorePolicies()
	var specs []mcSpec
	for _, sc := range scenarios {
		for _, nc := range coreCounts {
			for _, pol := range policies {
				specs = append(specs, mcSpec{scenario: sc, policy: pol, cores: nc})
			}
		}
	}
	cfgs := make([]sim.MulticoreConfig, len(specs))
	for i, sp := range specs {
		cfg, err := bench.NewMulticoreRun(sp.scenario, sp.policy, sp.cores, p.Insts)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	results, err := RunMulticoreConfigs(p, cfgs)
	if err != nil {
		return nil, err
	}
	return faceOffTable(specs, results), nil
}

// faceOffTable renders the face-off from one result per spec.
func faceOffTable(specs []mcSpec, results []*sim.MulticoreResult) *stats.Table {
	// Index the uncontrolled baseline of each scenario x cores cell.
	baseIPC := map[[2]string]float64{}
	for i, sp := range specs {
		if sp.policy == "none" {
			baseIPC[[2]string{sp.scenario, fmt.Sprint(sp.cores)}] = results[i].IPC
		}
	}

	t := &stats.Table{Header: []string{
		"scenario", "cores", "policy", "ipc", "% of none", "emerg %", "stress %", "avg duty", "avg freq"}}
	for i, sp := range specs {
		r := results[i]
		rel := 0.0
		if b := baseIPC[[2]string{sp.scenario, fmt.Sprint(sp.cores)}]; b > 0 {
			rel = r.IPC / b
		}
		var dutySum, freqSum float64
		for c := range r.PerCore {
			dutySum += r.PerCore[c].AvgDuty
			freqSum += r.PerCore[c].AvgFreq
		}
		nc := float64(len(r.PerCore))
		t.AddRow(sp.scenario,
			fmt.Sprint(sp.cores),
			r.Policy,
			fmt.Sprintf("%.3f", r.IPC),
			stats.Percent(rel),
			stats.Percent(r.EmergencyFrac()),
			stats.Percent(r.StressFrac()),
			fmt.Sprintf("%.3f", dutySum/nc),
			fmt.Sprintf("%.3f", freqSum/nc))
	}
	return t
}
