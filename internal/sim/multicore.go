package sim

import (
	"context"
	"fmt"

	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// MulticoreConfig parameterizes an N-core simulation: one workload per
// core on a floorplan.Tile(n) die with cross-core lateral coupling, a
// private pipeline and power model per core, and per-core control — fetch
// managers, adjustable-gain DVFS, or a chip-level hierarchical power
// budget.
type MulticoreConfig struct {
	// Workloads holds one profile per core; its length sets the core
	// count.
	Workloads []workload.Profile
	// Pipeline configures every core; zero value uses Table 2 defaults.
	Pipeline pipeline.Config
	// Gating is the clock-gating style for the per-core power models.
	Gating power.GatingStyle
	// Thresholds are the thermal limits; zero value uses defaults.
	Thresholds Thresholds
	// Managers optionally applies one fetch-duty DTM manager per core
	// (length 0 or exactly the core count). All managers must share one
	// sampling interval. Mutually exclusive with Budget.
	Managers []*dtm.Manager
	// DVFS optionally applies one adjustable-gain integral frequency
	// controller per core (length 0 or the core count); the commanded
	// factor gates core clock ticks and scales dynamic power by f^2
	// (net f^3 power at f throughput). Composable with Managers.
	DVFS []*dtm.AdaptiveGain
	// Budget optionally applies the hierarchical global-budget +
	// local-PI controller over all cores. Mutually exclusive with
	// Managers.
	Budget *dtm.PowerBudget
	// Sensors optionally models per-core non-ideal sensors; nil gives
	// every controller the true model temperatures.
	Sensors *sensor.Bank
	// MaxInsts is the per-core committed-instruction budget.
	MaxInsts uint64
	// MaxCycles is a hard cycle bound (safety net; 0 = 50x MaxInsts).
	MaxCycles uint64
	// ThermalStride selects the thermal integration mode exactly as in
	// Config: 0 auto-selects the macro-stepped fast path, 1 forces the
	// per-cycle Euler path, N>1 sets an explicit window.
	ThermalStride uint64
	// InitTemps optionally sets initial block temperatures over the
	// whole die (core-major, length cores x NumBlocks).
	InitTemps []float64
}

// CoreResult is one core's outcome within a multicore run.
type CoreResult struct {
	Workload string
	// Cycles is the cycle on which the core hit its instruction budget
	// (the full run length if it never did).
	Cycles          uint64
	Insts           uint64
	IPC             float64
	AvgDuty         float64
	AvgFreq         float64
	StallCycles     uint64
	EmergencyCycles uint64
	StressCycles    uint64
	Blocks          []BlockResult
}

// MulticoreResult is the outcome of a multicore run. Emergency and stress
// counts at the top level are chip-wide any-block unions; per-core unions
// live in PerCore.
type MulticoreResult struct {
	Workload string
	Policy   string
	Cores    int

	Cycles          uint64
	WallSeconds     float64
	Insts           uint64
	IPC             float64
	AvgChipPower    float64
	MaxChipPower    float64
	EmergencyCycles uint64
	StressCycles    uint64

	PerCore []CoreResult
}

// EmergencyFrac returns the fraction of cycles any block spent above the
// emergency threshold.
func (r *MulticoreResult) EmergencyFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.EmergencyCycles) / float64(r.Cycles)
}

// StressFrac returns the fraction of cycles any block spent above the
// stress threshold.
func (r *MulticoreResult) StressFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.StressCycles) / float64(r.Cycles)
}

// Multicore is a steppable N-core simulation. One global clock drives
// every core; per-core frequency factors gate core ticks through a carry
// accumulator, so the die-wide thermal network always advances in uniform
// wall-clock cycles and the macro-stepped fast path needs no per-core time
// dilation. Step is allocation-free in the steady state.
type Multicore struct {
	cfg   MulticoreConfig
	nc    int
	nb    int // blocks per core
	units []unit
	acct  thermAcct // die network and thermal bookkeeping, one group per core
	res   *MulticoreResult

	act      pipeline.Activity
	powerVec []float64 // flat die power, core-major
	sensed   []float64 // per-core sensor scratch (nb)

	ctl       controls      // the run's controllers and the actuation it applies
	members   []groupMember // other configs sharing this run (see NewMulticoreGroup)
	carry     []float64
	dutySum   []float64
	freqSum   []float64
	stallLeft []uint64
	coreDone  []bool
	doneCount int

	// Per-sample scratch for the budget controller.
	sampPow    []float64
	hotScratch []float64
	powScratch []float64
	dutyTarget []float64

	chipPowerSum float64 // chip power summed over the cycles so far

	interval  uint64
	hasSensor bool

	dt    float64
	cycle uint64

	finished bool
}

// NewMulticore validates cfg and builds a steppable multicore simulation.
func NewMulticore(cfg MulticoreConfig) (*Multicore, error) {
	nc := len(cfg.Workloads)
	if nc == 0 {
		return nil, fmt.Errorf("sim: multicore run needs at least one workload")
	}
	if err := runDefaults(cfg.MaxInsts, &cfg.Pipeline, &cfg.Thresholds, &cfg.MaxCycles); err != nil {
		return nil, err
	}
	ctl, interval, err := newControls(&cfg, nc)
	if err != nil {
		return nil, err
	}

	nb := int(floorplan.NumBlocks)
	if cfg.Sensors != nil && (cfg.Sensors.Cores() != nc || cfg.Sensors.BlocksPerCore() != nb) {
		return nil, fmt.Errorf("sim: sensor bank is %dx%d, run is %dx%d",
			cfg.Sensors.Cores(), cfg.Sensors.BlocksPerCore(), nc, nb)
	}

	tcfg := thermal.TileConfig(nc)
	tcfg.SinkTemp = cfg.Thresholds.SinkTemp
	net, err := newNetwork(tcfg, cfg.InitTemps)
	if err != nil {
		return nil, err
	}
	nblk := net.NumBlocks()

	s := &Multicore{
		cfg:   cfg,
		nc:    nc,
		nb:    nb,
		units: make([]unit, nc),

		powerVec: make([]float64, nblk),
		sensed:   make([]float64, nb),

		ctl:       ctl,
		carry:     make([]float64, nc),
		dutySum:   make([]float64, nc),
		freqSum:   make([]float64, nc),
		stallLeft: make([]uint64, nc),
		coreDone:  make([]bool, nc),

		sampPow:    make([]float64, nc),
		hotScratch: make([]float64, nc),
		powScratch: make([]float64, nc),
		dutyTarget: make([]float64, nc),

		interval:  interval,
		hasSensor: cfg.Sensors != nil,

		dt: tcfg.CycleTime,
	}
	for c := range s.units {
		if s.units[c], err = newUnit(cfg.Workloads[c], cfg.Pipeline, cfg.Gating); err != nil {
			return nil, fmt.Errorf("sim: core %d: %w", c, err)
		}
	}

	s.res = &MulticoreResult{
		Workload: cfg.Workloads[0].Name,
		Policy:   policyName(&cfg),
		Cores:    nc,
		PerCore:  make([]CoreResult, nc),
	}
	// Each core's results view its slice of the die's block results.
	blocks := make([]BlockResult, nblk)
	for c := range s.res.PerCore {
		cr := &s.res.PerCore[c]
		cr.Workload = cfg.Workloads[c].Name
		cr.Blocks = blocks[c*nb : (c+1)*nb : (c+1)*nb]
		for k := range cr.Blocks {
			cr.Blocks[k].Name = floorplan.BlockID(k).String()
		}
	}

	// Windows end on the controller sampling boundaries, so every control
	// decision observes freshly flushed temperatures.
	stride := cfg.ThermalStride
	if stride == 0 {
		stride = DefaultThermalStride
	}
	s.acct = newThermAcct(net, cfg.Thresholds, blocks, nb, stride, []uint64{interval}, cfg.MaxCycles)
	return s, nil
}

// sampleInterval returns the controller sampling interval of cfg: its
// managers' interval, or the default when it has none.
func sampleInterval(cfg *MulticoreConfig) uint64 {
	if len(cfg.Managers) > 0 && cfg.Managers[0] != nil {
		return cfg.Managers[0].Interval
	}
	return dtm.DefaultSampleInterval
}

// policyName names cfg's controllers as results report them.
func policyName(cfg *MulticoreConfig) string {
	policy := "none"
	switch {
	case cfg.Budget != nil:
		policy = cfg.Budget.Name()
	case len(cfg.Managers) > 0:
		policy = cfg.Managers[0].Policy.Name()
	}
	if len(cfg.DVFS) > 0 {
		policy = joinPolicy(policy, cfg.DVFS[0].Name())
	}
	return policy
}

// controls is one configuration's controllers together with the per-core
// actuation they have commanded so far, which is what a run under them
// applies to its cores. A run steps its own controls; a multicore group
// also steps each member's on the same observations and compares.
type controls struct {
	managers []*dtm.Manager
	dvfs     []*dtm.AdaptiveGain
	budget   *dtm.PowerBudget

	cmd []actuation // per core; stall is the one commanded at its latest sample
}

// newControls validates cfg's controllers for an nc-core run, resets them
// and returns them with every core at full speed, together with the
// sampling interval they share.
func newControls(cfg *MulticoreConfig, nc int) (controls, uint64, error) {
	if len(cfg.Managers) != 0 && len(cfg.Managers) != nc {
		return controls{}, 0, fmt.Errorf("sim: %d managers for %d cores", len(cfg.Managers), nc)
	}
	if len(cfg.DVFS) != 0 && len(cfg.DVFS) != nc {
		return controls{}, 0, fmt.Errorf("sim: %d DVFS controllers for %d cores", len(cfg.DVFS), nc)
	}
	if cfg.Budget != nil && len(cfg.Managers) != 0 {
		return controls{}, 0, fmt.Errorf("sim: Budget is mutually exclusive with Managers")
	}
	if cfg.Budget != nil && cfg.Budget.Cores() != nc {
		return controls{}, 0, fmt.Errorf("sim: budget controller manages %d cores, run has %d", cfg.Budget.Cores(), nc)
	}
	interval := sampleInterval(cfg)
	for i, m := range cfg.Managers {
		if m == nil {
			return controls{}, 0, fmt.Errorf("sim: nil manager for core %d", i)
		}
		m.Reset()
		if m.Interval != interval {
			return controls{}, 0, fmt.Errorf("sim: managers disagree on sampling interval (%d vs %d)", m.Interval, interval)
		}
	}
	if interval == 0 {
		return controls{}, 0, fmt.Errorf("sim: multicore managers need a nonzero sampling interval")
	}
	for i, d := range cfg.DVFS {
		if d == nil {
			return controls{}, 0, fmt.Errorf("sim: nil DVFS controller for core %d", i)
		}
		d.Reset()
	}
	if cfg.Budget != nil {
		cfg.Budget.Reset()
	}
	k := controls{
		managers: cfg.Managers,
		dvfs:     cfg.DVFS,
		budget:   cfg.Budget,
		cmd:      make([]actuation, nc),
	}
	for c := range k.cmd {
		k.cmd[c] = fullSpeed()
	}
	return k, interval, nil
}

// active reports whether any controller is configured.
func (k *controls) active() bool {
	return len(k.managers) > 0 || len(k.dvfs) > 0 || k.budget != nil
}

// sampleCore steps core c's fetch manager and DVFS controller on its
// observed block temperatures.
func (k *controls) sampleCore(c int, cycle uint64, obs []float64) {
	a := &k.cmd[c]
	if len(k.managers) > 0 {
		a.Actuation, a.stall = k.managers[c].StepActuation(cycle, obs)
	}
	if len(k.dvfs) > 0 {
		a.freq = k.dvfs[c].Sample(obs)
	}
}

// sampleBudget steps the chip budget on every core's hottest observed
// block and mean power over the sample; target is per-core scratch.
func (k *controls) sampleBudget(hot, pow, target []float64) {
	k.budget.SampleAll(hot, pow, target)
	for c, t := range target {
		k.cmd[c].FetchDuty = control.Quantize(t, 8)
	}
}

// Cycle returns the number of cycles simulated so far.
func (s *Multicore) Cycle() uint64 { return s.cycle }

// Done reports whether every core hit its instruction budget or the cycle
// bound was reached.
func (s *Multicore) Done() bool {
	return s.doneCount == s.nc || s.cycle >= s.cfg.MaxCycles
}

// Step advances every core and the die-wide thermal network by one global
// clock cycle.
func (s *Multicore) Step() {
	s.cycle++
	cycle := s.cycle
	res := s.res
	nb := s.nb

	chip := 0.0
	for c := 0; c < s.nc; c++ {
		core := s.units[c].core
		execute := false
		switch {
		case s.stallLeft[c] > 0:
			s.stallLeft[c]--
			s.res.PerCore[c].StallCycles++
		case s.coreDone[c]:
			// A finished core idles (clock still runs; its power model
			// decays toward the gated floor).
		case s.ctl.cmd[c].freq == 1:
			execute = true
		default:
			// DVFS tick gating: at factor f the core executes f of the
			// global clock ticks, carried exactly across cycles.
			if s.carry[c] += s.ctl.cmd[c].freq; s.carry[c] >= 1 {
				s.carry[c]--
				execute = true
			}
		}
		if execute {
			core.Step(&s.act)
		} else {
			s.act.Reset()
		}
		if !s.coreDone[c] && core.Stats().Committed >= s.cfg.MaxInsts {
			s.coreDone[c] = true
			s.doneCount++
			s.res.PerCore[c].Cycles = cycle
		}

		seg := s.powerVec[c*nb : (c+1)*nb]
		s.units[c].pmodel.BlockPower(&s.act, seg)
		pf := 1.0
		if f := s.ctl.cmd[c].freq; f != 1 {
			pf = f * f
			for i := range seg {
				seg[i] *= pf
			}
		}
		// Chip overhead (clock tree, I/O) scales with the core's voltage/
		// frequency point too, so it rides the same f^2 factor.
		corePow := pf * s.units[c].pmodel.ChipOverhead(&s.act)
		for _, p := range seg {
			corePow += p
		}
		chip += corePow
		s.sampPow[c] += corePow
	}
	s.chipPowerSum += chip
	if chip > res.MaxChipPower {
		res.MaxChipPower = chip
	}

	res.WallSeconds += s.dt
	if s.acct.fast {
		if s.acct.win.add(s.powerVec) {
			s.acct.closeWindow(1)
			s.acct.win.openAfter(cycle)
		}
	} else {
		s.acct.net.Step(s.powerVec)
		s.acct.observe()
	}

	if cycle%s.interval == 0 {
		s.sample(cycle)
	}
	for c := range s.ctl.cmd {
		s.dutySum[c] += s.ctl.cmd[c].FetchDuty
		s.freqSum[c] += s.ctl.cmd[c].freq
	}
}

// coreObs returns core c's observed block temperatures: the true model
// temperatures, or the sensor bank's view of them.
func (s *Multicore) coreObs(c int) []float64 {
	if s.hasSensor {
		return s.cfg.Sensors.Read(c, s.acct.temps, s.sensed)
	}
	return s.acct.temps[c*s.nb : (c+1)*s.nb]
}

// sample runs every controller at a sampling boundary: the run's own,
// then those of each member still sharing it, on the same observations.
// Windows are clamped to end here, so the block temperatures are fresh on
// both thermal paths. A member whose actuation now differs from the run's
// leaves the group.
func (s *Multicore) sample(cycle uint64) {
	observe, budget := s.ctl.active(), s.ctl.budget != nil
	for i := range s.members {
		if m := &s.members[i]; m.shared {
			observe = observe || m.ctl.active()
			budget = budget || m.ctl.budget != nil
		}
	}
	if observe {
		for c := 0; c < s.nc; c++ {
			if s.stallLeft[c] > 0 {
				continue // stalled cores skip sampling, as in the solo loop
			}
			obs := s.coreObs(c)
			s.hotScratch[c] = maxOf(obs)
			s.ctl.sampleCore(c, cycle, obs)
			s.stallLeft[c] += s.ctl.cmd[c].stall
			for i := range s.members {
				if m := &s.members[i]; m.shared {
					m.ctl.sampleCore(c, cycle, obs)
				}
			}
		}
	}
	if budget {
		inv := 1 / float64(s.interval)
		for c := 0; c < s.nc; c++ {
			s.powScratch[c] = s.sampPow[c] * inv
		}
		if s.ctl.budget != nil {
			s.ctl.sampleBudget(s.hotScratch, s.powScratch, s.dutyTarget)
		}
		for i := range s.members {
			if m := &s.members[i]; m.shared && m.ctl.budget != nil {
				m.ctl.sampleBudget(s.hotScratch, s.powScratch, s.dutyTarget)
			}
		}
	}
	for c := 0; c < s.nc; c++ {
		s.sampPow[c] = 0
	}
	if s.ctl.active() {
		for c := range s.units {
			s.ctl.cmd[c].apply(s.units[c].core)
		}
	}
	for i := range s.members {
		if m := &s.members[i]; m.shared {
			for c := range s.ctl.cmd {
				m.shared = m.shared && m.ctl.cmd[c].same(&s.ctl.cmd[c])
			}
		}
	}
}

// Finish seals the run and returns the result. It is idempotent.
func (s *Multicore) Finish() *MulticoreResult {
	res := s.res
	if s.finished {
		return res
	}
	s.finished = true
	s.acct.finish(1)
	res.Cycles = s.cycle
	res.EmergencyCycles = s.acct.chipEm
	res.StressCycles = s.acct.chipSt
	var insts uint64
	for c := 0; c < s.nc; c++ {
		cr := &res.PerCore[c]
		st := s.units[c].core.Stats()
		cr.Insts = st.Committed
		if cr.Cycles == 0 {
			cr.Cycles = s.cycle
		}
		if cr.Cycles > 0 {
			cr.IPC = float64(cr.Insts) / float64(cr.Cycles)
		}
		if s.cycle > 0 {
			cr.AvgDuty = s.dutySum[c] / float64(s.cycle)
			cr.AvgFreq = s.freqSum[c] / float64(s.cycle)
		}
		cr.EmergencyCycles = s.acct.groupEm[c]
		cr.StressCycles = s.acct.groupSt[c]
		insts += cr.Insts
	}
	res.Insts = insts
	if s.cycle > 0 {
		res.IPC = float64(insts) / float64(s.cycle)
	}
	res.AvgChipPower = mean(s.chipPowerSum, s.cycle)
	return res
}

// Run steps the simulation to completion (see runLoop).
func (s *Multicore) Run(ctx context.Context) (*MulticoreResult, error) {
	if err := runLoop(ctx, s.cycle, s.runTo); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// runTo steps until the run is done or reaches cycle limit.
func (s *Multicore) runTo(limit uint64) (uint64, bool) {
	for s.cycle < limit && !s.Done() {
		s.Step()
	}
	return s.cycle, !s.Done()
}

// RunMulticore executes one multicore simulation to completion.
func RunMulticore(ctx context.Context, cfg MulticoreConfig) (*MulticoreResult, error) {
	s, err := NewMulticore(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}
