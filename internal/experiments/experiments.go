// Package experiments regenerates every table and figure of the paper's
// evaluation (the index lives in DESIGN.md): benchmark characterization
// (Tables 4-8), the boxcar-proxy comparison (Tables 9-10), the DTM policy
// evaluation and headline result (Section 7), the setpoint study, and the
// time-series traces behind the figures. Every solo batch runs through one
// engine, RunConfigs, which gang-schedules runs sharing a workload; every
// multicore batch runs through RunMulticoreConfigs, which groups runs
// differing only in controllers. cmd/tables and the root benchmark
// harness are thin wrappers over this package, and cmd/sweep calls both
// engines directly.
package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Params controls experiment scale. The paper simulates 200M committed
// instructions per benchmark; the default here is scaled down to keep a
// full table regeneration in CI territory while covering many thermal time
// constants (2M instructions ~ 1-10M cycles ~ 10-60 block RCs).
type Params struct {
	// Insts is the committed-instruction budget per run.
	Insts uint64
	// Policies lists the DTM policies for the evaluation tables.
	Policies []string
	// Context, when non-nil, cancels in-flight batches (the first error
	// in a batch also aborts it). Nil means Background.
	Context context.Context
	// Workers bounds batch parallelism; <= 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, observes every batch's per-job completion;
	// a job is one solo run or one gang.
	Progress func(runner.Progress)
	// Registry, when non-nil, collects sim and runner telemetry from every
	// batch run (shared metrics; per-run counter stripes).
	Registry *telemetry.Registry
	// Trace, when non-nil, receives structured controller/thermal samples
	// from every run, labeled "benchmark/policy".
	Trace *telemetry.Recorder
	// TraceInterval is the cycle stride for Trace samples (0 = DTM
	// sampling interval).
	TraceInterval uint64
	// Cache, when non-nil, memoizes completed runs by configuration
	// fingerprint (sim.CacheKey), so repeated batches — the setpoint
	// study and policy evaluation share their baselines, and repeated
	// tool invocations with a disk-backed cache share everything — skip
	// simulations entirely. Runs with live telemetry attached (Registry
	// or Trace set) are not cacheable and always execute.
	Cache *runner.Cache[*sim.Result]
}

// runnerOptions are the worker-pool options both batch engines run with:
// the params' parallelism and progress, and runner metrics in p.Registry.
func (p Params) runnerOptions() runner.Options {
	opts := runner.Options{Workers: p.Workers, Progress: p.Progress}
	if p.Registry != nil {
		opts.Metrics = telemetry.NewRunnerMetrics(p.Registry)
	}
	return opts
}

// ctx returns the effective batch context.
func (p Params) ctx() context.Context {
	if p.Context != nil {
		return p.Context
	}
	return context.Background()
}

// DefaultParams returns the standard reproduction scale.
func DefaultParams() Params {
	return Params{
		Insts:    2_000_000,
		Policies: []string{"toggle1", "toggle2", "M", "P", "PI", "PID"},
	}
}

// runSpec identifies one simulation in a batch.
type runSpec struct {
	bench    string
	policy   string
	setpoint float64
	cfg      func(*sim.Config)
}

// maxGang caps gang membership: larger groups of one workload split into
// several gangs, which the worker pool then runs in parallel.
const maxGang = 16

// runBatch materializes specs into instrumented configs and runs them
// through the batch engine (RunConfigs). Results come back in spec order.
func runBatch(p Params, specs []runSpec) ([]*sim.Result, error) {
	cfgs := make([]sim.Config, len(specs))
	for i, sp := range specs {
		cfg, err := p.buildConfig(sp)
		if err != nil {
			return nil, err
		}
		p.instrument(&cfg, sp.bench+"/"+sp.policy)
		cfgs[i] = cfg
	}
	res, _, err := RunConfigs(p, cfgs)
	return res, err
}

// buildConfig materializes one spec into a run configuration, without
// telemetry instrumentation.
func (p Params) buildConfig(sp runSpec) (sim.Config, error) {
	prof, err := bench.ByName(sp.bench)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{Workload: prof, MaxInsts: p.Insts}
	if err := bench.ApplyPolicy(&cfg, sp.policy, sp.setpoint); err != nil {
		return sim.Config{}, err
	}
	if sp.cfg != nil {
		sp.cfg(&cfg)
	}
	return cfg, nil
}

// RunConfigs is the batch engine. It serves every cacheable config it can
// from p.Cache, then groups the cold ones by sim.GangCompatible into gangs
// of up to maxGang members and runs each group as one job on the worker
// pool (bounded workers, first-error abort, panic-to-error conversion,
// per-job metrics and progress): multi-member groups through sim.NewGang,
// singletons through sim.RunContext. Instrumented configs gang like any
// other. Gang results are byte-identical to solo runs. Cold results are
// stored in p.Cache.
// Results come back in cfgs order; cold reports which were simulated.
//
// The configs are run as given: RunConfigs attaches no telemetry to them
// (p.Registry only records runner metrics, p.Trace is unused), and each
// must own its controllers, as sim.NewGang requires.
func RunConfigs(p Params, cfgs []sim.Config) (res []*sim.Result, cold []bool, err error) {
	res = make([]*sim.Result, len(cfgs))
	cold = make([]bool, len(cfgs))
	keys := make([]string, len(cfgs))
	var todo []int
	for i := range cfgs {
		if p.Cache != nil {
			if key, ok := sim.CacheKey(cfgs[i]); ok {
				keys[i] = key
				if r, hit := p.Cache.Get(key); hit {
					res[i] = r
					continue
				}
			}
		}
		cold[i] = true
		todo = append(todo, i)
	}
	if len(todo) == 0 { // fully warm batch: nothing to schedule
		return res, cold, nil
	}

	err = runGrouped(p.ctx(), p.runnerOptions(), cfgs, todo, res, joinGang,
		func(ctx context.Context, members []sim.Config, idx []int) ([]*sim.Result, error) {
			out, err := runGang(ctx, members)
			if err == nil && p.Cache != nil {
				for j, i := range idx {
					if keys[i] != "" {
						p.Cache.Put(keys[i], out[j])
					}
				}
			}
			return out, err
		})
	if err != nil {
		return nil, nil, err
	}
	return res, cold, nil
}

// joinGang reports whether cfg may join the gang led by lead that has
// size members: up to maxGang members that sim.GangCompatible admits.
func joinGang(lead, cfg *sim.Config, size int) bool {
	return size < maxGang && sim.GangCompatible(lead, cfg) == nil
}

// runGang runs one job of the batch engine: members as one gang when
// there are several.
func runGang(ctx context.Context, members []sim.Config) ([]*sim.Result, error) {
	if len(members) == 1 {
		r, err := sim.RunContext(ctx, members[0])
		return []*sim.Result{r}, err
	}
	gang, err := sim.NewGang(members, sim.GangOptions{})
	if err != nil {
		return nil, err
	}
	return gang.Run(ctx)
}

// runGrouped is the batch loop every batch engine shares. It groups the
// configs at the positions todo (see group) and runs each group as one job
// on the worker pool (bounded workers, first-error abort, panic-to-error
// conversion, per-job metrics and progress) through run, which gets the
// group's configs and their positions and returns one result per config.
// The results land in res at those positions.
func runGrouped[C, R any](ctx context.Context, opts runner.Options, cfgs []C, todo []int, res []R,
	join func(lead, cfg *C, size int) bool,
	run func(ctx context.Context, members []C, idx []int) ([]R, error)) error {
	groups := group(cfgs, todo, join)
	outs, err := runner.Map(ctx, opts, groups, func(ctx context.Context, idx []int) ([]R, error) {
		members := make([]C, len(idx))
		for j, i := range idx {
			members[j] = cfgs[i]
		}
		return run(ctx, members, idx)
	})
	if err != nil {
		return err
	}
	for g, idx := range groups {
		for j, i := range idx {
			res[i] = outs[g][j]
		}
	}
	return nil
}

// group puts each config at the positions todo into the first group whose
// lead (its first member) it may join, as join(lead, cfg, group size)
// decides, or into a new group of its own. Groups hold positions in cfgs.
func group[C any](cfgs []C, todo []int, join func(lead, cfg *C, size int) bool) [][]int {
	var groups [][]int
	for _, i := range todo {
		g := 0
		for g < len(groups) && !join(&cfgs[groups[g][0]], &cfgs[i], len(groups[g])) {
			g++
		}
		if g == len(groups) {
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// instrument attaches the params' telemetry sinks to one run's config. A
// fresh SimMetrics bundle per run keeps counter stripes uncontended across
// the worker pool while still aggregating into the shared registry.
func (p Params) instrument(cfg *sim.Config, runID string) {
	if p.Registry != nil {
		cfg.Metrics = telemetry.NewSimMetrics(p.Registry)
	}
	if p.Trace != nil {
		cfg.Trace = p.Trace
		cfg.TraceInterval = p.TraceInterval
		cfg.TraceID = runID
	}
}

// Baseline runs the whole suite uncontrolled and returns results in
// bench.Names order.
func Baseline(p Params) ([]*sim.Result, error) {
	var specs []runSpec
	for _, n := range bench.Names() {
		specs = append(specs, runSpec{bench: n, policy: "none"})
	}
	return runBatch(p, specs)
}

// Table2 renders the simulated machine configuration (Table 2).
func Table2() *stats.Table {
	c := pipeline.DefaultConfig()
	t := &stats.Table{Header: []string{"parameter", "value"}}
	t.AddRow("instruction window", fmt.Sprintf("%d-RUU, %d-LSQ", c.RUUSize, c.LSQSize))
	t.AddRow("issue width", fmt.Sprintf("%d per cycle (%d int, %d FP)", c.IssueWidth, c.IntIssue, c.FPIssue))
	t.AddRow("functional units", fmt.Sprintf("%d IntALU, %d IntMult/Div, %d FPALU, %d FPMult/Div, %d mem ports",
		c.IntALUs, c.IntMultDiv, c.FPALUs, c.FPMultDiv, c.MemPorts))
	t.AddRow("front end", fmt.Sprintf("%d-wide fetch, %d-stage depth", c.FetchWidth, c.FrontEndDepth))
	t.AddRow("L1 D-cache", fmt.Sprintf("%d KB, %d-way, %d B blocks, %d-cycle",
		c.L1D.SizeBytes>>10, c.L1D.Assoc, c.L1D.BlockSize, c.L1D.Latency))
	t.AddRow("L1 I-cache", fmt.Sprintf("%d KB, %d-way, %d B blocks, %d-cycle",
		c.L1I.SizeBytes>>10, c.L1I.Assoc, c.L1I.BlockSize, c.L1I.Latency))
	t.AddRow("L2", fmt.Sprintf("%d MB, %d-way, %d B blocks, %d-cycle",
		c.L2.SizeBytes>>20, c.L2.Assoc, c.L2.BlockSize, c.L2.Latency))
	t.AddRow("memory", "100 cycles")
	t.AddRow("TLB", "128-entry fully assoc., 30-cycle miss")
	t.AddRow("branch predictor", fmt.Sprintf("hybrid: %d bimod + %d/%d-bit GAg, %d chooser",
		c.BPred.BimodEntries, c.BPred.GlobalEntries, c.BPred.HistoryBits, c.BPred.ChooserEntries))
	t.AddRow("BTB / RAS", fmt.Sprintf("%d-entry %d-way / %d-entry",
		c.BPred.BTBSets*c.BPred.BTBAssoc, c.BPred.BTBAssoc, c.BPred.RASEntries))
	return t
}

// Table3 renders the per-structure thermal parameters (Table 3).
func Table3() *stats.Table {
	t := &stats.Table{Header: []string{"structure", "area (m^2)", "peak power (W)", "R (K/W)", "C (J/K)", "RC"}}
	for _, b := range floorplan.Default() {
		t.AddRow(b.ID.String(),
			fmt.Sprintf("%.1e", b.Area),
			fmt.Sprintf("%.1f", b.PeakPower),
			fmt.Sprintf("%.2f", b.R),
			fmt.Sprintf("%.2e", b.C),
			fmt.Sprintf("%.0f us", b.RC()*1e6))
	}
	chip := floorplan.ChipBlock()
	t.AddRow("chip", fmt.Sprintf("%.1e", chip.Area), fmt.Sprintf("%.0f", chip.PeakPower),
		fmt.Sprintf("%.2f", chip.R), fmt.Sprintf("%.0f", chip.C),
		fmt.Sprintf("%.1f s", chip.RC()))
	return t
}

// Table4 renders per-benchmark IPC, power, average temperature and the
// fractions of cycles above the emergency and stress thresholds (Table 4).
func Table4(base []*sim.Result) *stats.Table {
	t := &stats.Table{Header: []string{
		"benchmark", "IPC", "avg pwr (W)", "avg temp (C)", "> D", "> D-1"}}
	for _, r := range base {
		// The paper's Table 4 "avg temp" column uses the chip-wide
		// package model at 27 C ambient with R = 0.34 K/W.
		chipTemp := 27 + 0.34*r.AvgChipPower
		t.AddRow(r.Benchmark,
			fmt.Sprintf("%.2f", r.IPC),
			fmt.Sprintf("%.1f", r.AvgChipPower),
			fmt.Sprintf("%.1f", chipTemp),
			stats.Percent(r.EmergencyFrac()),
			stats.Percent(r.StressFrac()))
	}
	return t
}

// Table5 renders the thermal categories (Table 5).
func Table5() *stats.Table {
	byCat := map[bench.Category][]string{}
	for _, n := range bench.Names() {
		c := bench.CategoryOf(n)
		byCat[c] = append(byCat[c], n)
	}
	t := &stats.Table{Header: []string{"category", "benchmarks"}}
	for _, c := range []bench.Category{bench.Extreme, bench.High, bench.Medium, bench.Low} {
		names := byCat[c]
		sort.Strings(names)
		t.AddRow(string(c), fmt.Sprint(names))
	}
	return t
}

// blockColumns is the per-structure column order of Tables 6-8.
func blockColumns() []string {
	var cols []string
	for _, id := range floorplan.Blocks() {
		cols = append(cols, id.String())
	}
	return cols
}

// Table6 renders per-structure average/maximum temperatures (Table 6).
func Table6(base []*sim.Result) *stats.Table {
	t := &stats.Table{Header: append([]string{"benchmark"}, blockColumns()...)}
	for _, r := range base {
		row := []string{r.Benchmark}
		for _, b := range r.Blocks {
			row = append(row, fmt.Sprintf("%.1f/%.1f", b.AvgTemp, b.MaxTemp))
		}
		t.AddRow(row...)
	}
	return t
}

// Table7 renders the per-structure fraction of cycles in emergency
// (Table 7), and Table8 the same for the stress level (Table 8).
func Table7(base []*sim.Result) *stats.Table { return perBlockFracTable(base, true) }

// Table8 renders per-structure thermal-stress residency (Table 8).
func Table8(base []*sim.Result) *stats.Table { return perBlockFracTable(base, false) }

func perBlockFracTable(base []*sim.Result, emergency bool) *stats.Table {
	t := &stats.Table{Header: append([]string{"benchmark"}, blockColumns()...)}
	for _, r := range base {
		row := []string{r.Benchmark}
		for _, b := range r.Blocks {
			n := b.StressCycles
			if emergency {
				n = b.EmergencyCycles
			}
			row = append(row, stats.Percent(float64(n)/float64(r.Cycles)))
		}
		t.AddRow(row...)
	}
	return t
}

// ProxyTables runs the suite with boxcar power proxies attached and
// renders Tables 9 (per-structure proxy) and 10 (chip-wide proxy): missed
// emergency cycles and false trigger cycles per window.
func ProxyTables(p Params, windows []int) (perStruct, chipWide *stats.Table, err error) {
	if len(windows) == 0 {
		windows = []int{10_000, 500_000}
	}
	var specs []runSpec
	for _, n := range bench.Names() {
		specs = append(specs, runSpec{bench: n, policy: "none", cfg: func(c *sim.Config) {
			c.ProxyWindows = windows
		}})
	}
	results, err := runBatch(p, specs)
	if err != nil {
		return nil, nil, err
	}
	header := []string{"benchmark", "emerg cycles"}
	for _, w := range windows {
		header = append(header,
			fmt.Sprintf("missed@%dK", w/1000),
			fmt.Sprintf("false@%dK", w/1000))
	}
	perStruct = &stats.Table{Header: header}
	chipWide = &stats.Table{Header: header}
	for _, r := range results {
		rowS := []string{r.Benchmark, fmt.Sprintf("%d", r.EmergencyCycles)}
		rowC := []string{r.Benchmark, fmt.Sprintf("%d", r.EmergencyCycles)}
		for _, pr := range r.Proxies {
			rowS = append(rowS, stats.Percent(pr.PerStruct.MissedFrac()), stats.Percent(pr.PerStruct.FalseFrac()))
			rowC = append(rowC, stats.Percent(pr.ChipWide.MissedFrac()), stats.Percent(pr.ChipWide.FalseFrac()))
		}
		perStruct.AddRow(rowS...)
		chipWide.AddRow(rowC...)
	}
	return perStruct, chipWide, nil
}

// PolicyEval holds the Section 7 evaluation: per benchmark x policy, the
// percent of non-DTM IPC retained and the emergency residency.
type PolicyEval struct {
	Policies  []string
	Base      []*sim.Result
	ByPolicy  map[string][]*sim.Result
	PctOfBase map[string][]float64 // parallel to bench.Names()
}

// RunPolicyEval executes the full policy-evaluation matrix. The whole
// matrix — baseline plus every policy — goes through one batch, so the
// batch engine folds each benchmark's policy column into a single
// lock-step gang.
func RunPolicyEval(p Params) (*PolicyEval, error) {
	names := bench.Names()
	specs := make([]runSpec, 0, (1+len(p.Policies))*len(names))
	for _, n := range names {
		specs = append(specs, runSpec{bench: n, policy: "none"})
	}
	for _, pol := range p.Policies {
		for _, n := range names {
			specs = append(specs, runSpec{bench: n, policy: pol})
		}
	}
	all, err := runBatch(p, specs)
	if err != nil {
		return nil, err
	}
	base := all[:len(names)]
	ev := &PolicyEval{
		Policies:  p.Policies,
		Base:      base,
		ByPolicy:  map[string][]*sim.Result{},
		PctOfBase: map[string][]float64{},
	}
	for k, pol := range p.Policies {
		results := all[(k+1)*len(names) : (k+2)*len(names)]
		ev.ByPolicy[pol] = results
		pct := make([]float64, len(results))
		for i, r := range results {
			pct[i] = r.IPC / base[i].IPC
		}
		ev.PctOfBase[pol] = pct
	}
	return ev, nil
}

// Table11 renders the per-benchmark policy evaluation: percent of non-DTM
// IPC with the emergency residency in parentheses.
func (ev *PolicyEval) Table11() *stats.Table {
	t := &stats.Table{Header: append([]string{"benchmark"}, ev.Policies...)}
	for i, n := range bench.Names() {
		row := []string{n}
		for _, pol := range ev.Policies {
			r := ev.ByPolicy[pol][i]
			row = append(row, fmt.Sprintf("%5.1f%% (%0.2f%%)",
				100*ev.PctOfBase[pol][i], 100*r.EmergencyFrac()))
		}
		t.AddRow(row...)
	}
	return t
}

// Headline summarizes the paper's central claim (Section 7): per policy,
// the mean performance retained, the mean performance *loss* relative to
// toggle1's loss, and whether any emergency cycles survived.
type Headline struct {
	Policy        string
	MeanPct       float64 // mean fraction of non-DTM IPC retained
	MeanLoss      float64 // 1 - MeanPct
	LossVsToggle1 float64 // MeanLoss / toggle1's MeanLoss
	Emergencies   uint64  // total emergency cycles across the suite
}

// Headlines computes the Table 12 aggregate. Benchmarks whose baseline
// never triggers any policy dilute nothing: the mean is over the
// benchmarks that lose performance under at least one policy.
func (ev *PolicyEval) Headlines() []Headline {
	affected := map[int]bool{}
	for i := range bench.Names() {
		for _, pol := range ev.Policies {
			if ev.PctOfBase[pol][i] < 0.9999 {
				affected[i] = true
			}
		}
	}
	var toggleLoss float64
	var out []Headline
	for _, pol := range ev.Policies {
		var losses []float64
		var emerg uint64
		for i := range bench.Names() {
			if !affected[i] {
				continue
			}
			losses = append(losses, 1-ev.PctOfBase[pol][i])
			emerg += ev.ByPolicy[pol][i].EmergencyCycles
		}
		h := Headline{
			Policy:      pol,
			MeanLoss:    stats.Mean(losses),
			Emergencies: emerg,
		}
		h.MeanPct = 1 - h.MeanLoss
		if pol == "toggle1" {
			toggleLoss = h.MeanLoss
		}
		out = append(out, h)
	}
	for i := range out {
		if toggleLoss > 0 {
			out[i].LossVsToggle1 = out[i].MeanLoss / toggleLoss
		}
	}
	return out
}

// Table12 renders the headline aggregate.
func (ev *PolicyEval) Table12() *stats.Table {
	t := &stats.Table{Header: []string{"policy", "mean % of base IPC", "mean loss", "loss vs toggle1", "emergency cycles"}}
	for _, h := range ev.Headlines() {
		t.AddRow(h.Policy,
			fmt.Sprintf("%.1f%%", 100*h.MeanPct),
			fmt.Sprintf("%.1f%%", 100*h.MeanLoss),
			fmt.Sprintf("%.2fx", h.LossVsToggle1),
			fmt.Sprintf("%d", h.Emergencies))
	}
	return t
}

// SetpointStudy runs PI and PID at the paper's default and lowered
// setpoints (Table 13 / Section 7's setpoint sensitivity). Like the
// policy evaluation, all cells go through one batch so gang scheduling
// can group them by benchmark.
func SetpointStudy(p Params) (*stats.Table, error) {
	names := bench.Names()
	type cell struct {
		pol string
		sp  float64
	}
	var cells []cell
	for _, pol := range []string{"PI", "PID"} {
		for _, sp := range []float64{bench.PISetpoint, bench.LowSetpoint} {
			cells = append(cells, cell{pol, sp})
		}
	}
	specs := make([]runSpec, 0, (1+len(cells))*len(names))
	for _, n := range names {
		specs = append(specs, runSpec{bench: n, policy: "none"})
	}
	for _, c := range cells {
		for _, n := range names {
			specs = append(specs, runSpec{bench: n, policy: c.pol, setpoint: c.sp})
		}
	}
	all, err := runBatch(p, specs)
	if err != nil {
		return nil, err
	}
	base := all[:len(names)]
	t := &stats.Table{Header: []string{"policy", "setpoint", "mean % of base IPC", "emergency cycles"}}
	for k, c := range cells {
		results := all[(k+1)*len(names) : (k+2)*len(names)]
		var pcts []float64
		var emerg uint64
		for i, r := range results {
			pcts = append(pcts, r.IPC/base[i].IPC)
			emerg += r.EmergencyCycles
		}
		t.AddRow(c.pol, fmt.Sprintf("%.1f", c.sp),
			fmt.Sprintf("%.1f%%", 100*stats.Mean(pcts)),
			fmt.Sprintf("%d", emerg))
	}
	return t, nil
}

// Trace runs each named benchmark under one policy (setpoint 0 keeps the
// policy's paper default) as one batch, recording the hottest-block
// temperature, fetch duty and per-block temperatures every stride cycles
// (the temperature/duty figures; stride 0 records none). Results come
// back in names order.
func Trace(p Params, names []string, policy string, setpoint float64, stride uint64) ([]*sim.Result, error) {
	specs := make([]runSpec, len(names))
	for i, n := range names {
		specs[i] = runSpec{bench: n, policy: policy, setpoint: setpoint,
			cfg: func(c *sim.Config) { c.TraceStride = stride }}
	}
	return runBatch(p, specs)
}

// SeedStats summarizes a benchmark's metric spread across workload seeds —
// the confidence check that the synthetic proxies' conclusions are not
// artifacts of one random program structure.
type SeedStats struct {
	Benchmark, Policy  string
	N                  int
	IPCMean, IPCStd    float64
	EmergMean, EmergSD float64 // emergency fraction
}

// SeedStudy reruns one benchmark/policy across n workload seeds.
func SeedStudy(p Params, benchName, policy string, n int) (SeedStats, error) {
	if n < 2 {
		return SeedStats{}, fmt.Errorf("experiments: seed study needs n >= 2")
	}
	base, err := bench.ByName(benchName)
	if err != nil {
		return SeedStats{}, err
	}
	specs := make([]runSpec, n)
	for i := range specs {
		seed := base.Seed + uint64(i)*0x9e3779b97f4a7c15
		specs[i] = runSpec{bench: benchName, policy: policy,
			cfg: func(c *sim.Config) { c.Workload.Seed = seed }}
	}
	results, err := runBatch(p, specs)
	if err != nil {
		return SeedStats{}, err
	}
	var ipc, emerg stats.Running
	for _, res := range results {
		ipc.Add(res.IPC)
		emerg.Add(res.EmergencyFrac())
	}
	return SeedStats{
		Benchmark: benchName, Policy: policy, N: n,
		IPCMean: ipc.Mean(), IPCStd: ipc.StdDev(),
		EmergMean: emerg.Mean(), EmergSD: emerg.StdDev(),
	}, nil
}
