// Package sim wires the full system of the paper together: the workload
// generator feeds the out-of-order pipeline; every cycle the pipeline's
// activity is converted to per-block power (Wattch coupling), the power
// drives the lumped thermal-RC network, the per-block temperatures feed the
// DTM manager, and the manager's fetch duty closes the loop back into the
// pipeline (Figure 1 realized at the microarchitecture level).
//
// A Run produces the metrics every table in the evaluation needs: IPC and
// percent-of-baseline performance, thermal-emergency and thermal-stress
// cycle counts (total and per block), per-block average/maximum
// temperatures, average power, duty statistics, and optional proxy
// comparisons (Section 6) and time-series traces (the figures).
package sim

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/sensor"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Thresholds carries the thermal limits used everywhere (see DESIGN.md for
// the reconstruction of the paper's constants).
type Thresholds struct {
	// Emergency is the thermal-emergency level D (111.3 C).
	Emergency float64
	// Stress is the thermal-stress reporting level (D - 1).
	Stress float64
	// SinkTemp is the heatsink temperature (100 C).
	SinkTemp float64
}

// chipAmbient is the ambient temperature (C) of the coupled chip-wide
// package model (Config.CoupleChipSink).
const chipAmbient = 45

// chipProxyTriggerW is the chip-wide power proxy's trigger threshold in
// watts (Tables 9/10).
const chipProxyTriggerW = 47

// DefaultThresholds returns the paper's operating point.
func DefaultThresholds() Thresholds {
	return Thresholds{Emergency: 111.3, Stress: 110.3, SinkTemp: 100.0}
}

// Config parameterizes one simulation run.
type Config struct {
	// Workload is the benchmark profile to execute.
	Workload workload.Profile
	// Pipeline configures the core; zero value uses Table 2 defaults.
	Pipeline pipeline.Config
	// Gating is the clock-gating style for the power model.
	Gating power.GatingStyle
	// Leakage, when non-nil, adds temperature-dependent static power to
	// every block (closing the leakage/temperature feedback loop).
	Leakage *power.LeakageModel
	// Thresholds are the thermal limits; zero value uses defaults.
	Thresholds Thresholds
	// Manager applies a DTM policy; nil runs uncontrolled.
	Manager *dtm.Manager
	// Scaling optionally applies frequency (or voltage/frequency)
	// scaling instead of / in addition to the manager's fetch actuator.
	Scaling *dtm.Scaling
	// Hierarchy applies a composed primary-policy + scaling-backup
	// mechanism (Section 2.1's hierarchical deployment). Mutually
	// exclusive with Manager/Scaling.
	Hierarchy *dtm.Hierarchy
	// MaxInsts stops the run after this many committed instructions.
	MaxInsts uint64
	// MaxCycles is a hard cycle bound (safety net; 0 = 50x MaxInsts).
	MaxCycles uint64
	// Tangential enables lateral heat flow in the thermal network.
	Tangential bool
	// ProxyWindows, when non-empty, runs boxcar power proxies of the
	// given window lengths against the RC model (Tables 9/10).
	ProxyWindows []int
	// TraceStride, when nonzero, records time series every N cycles.
	TraceStride uint64
	// Sensor models non-ideal temperature sensors feeding the DTM
	// manager (offset and quantization error); the zero value is the
	// paper's idealized sensor. The thermal bookkeeping always uses the
	// true model temperature — only the DTM policy sees sensor readings.
	Sensor sensor.Sensor
	// CoupleChipSink evolves the heatsink temperature with the slow
	// chip-wide package model (ambient chipAmbient, Table 3 chip R/C)
	// instead of holding it constant — an extension for validating the
	// paper's constant-heatsink assumption over short intervals.
	CoupleChipSink bool
	// MonitoredBlocks, when non-empty, restricts the DTM policy's view to
	// sensors on these blocks only — the paper's limited-sensor-placement
	// concern (Section 4.2). Thermal bookkeeping still covers every
	// block; unmonitored hot spots can therefore escape the policy.
	MonitoredBlocks []floorplan.BlockID
	// InitTemps optionally sets initial block temperatures (default:
	// heatsink temperature everywhere).
	InitTemps []float64
	// ThermalStride selects the thermal integration mode. 0 (the
	// default) auto-selects: the macro-stepped exponential fast path
	// with DefaultThermalStride-cycle windows when the configuration
	// allows it, otherwise the per-cycle Euler path. 1 forces the
	// per-cycle Euler path (the paper's Equation 5 literally, needed
	// for A/B validation). N>1 sets an explicit fast-path window of N
	// cycles; configurations that require per-cycle temperatures
	// (power proxies, the coupled chip/sink model) reject explicit
	// strides. Windows are always flushed early at DTM sample
	// boundaries, scaling/hierarchy samples and Finish, so every
	// controller decision sees fresh temperatures. Telemetry never ends a
	// window: traces and recorder samples read the open one.
	ThermalStride uint64
	// Metrics, when non-nil, streams hot-loop instrumentation into the
	// bundle's registry: cycle/commit/stall tallies (flushed every few
	// thousand cycles, exact after Finish), controller sample events
	// (saturation, anti-windup freezes, escalations), gauges as of the
	// last closed thermal window and sampled thermal-solver timing,
	// allocation-free. Like every sink it only reads the run.
	Metrics *telemetry.SimMetrics
	// Trace, when non-nil, records a structured telemetry sample
	// (temperatures, duty, controller P/I/D terms, saturation,
	// escalations) every TraceInterval cycles. The recorder may be
	// shared by parallel runs; samples are labeled with TraceID.
	Trace *telemetry.Recorder
	// TraceInterval is the cycle stride for Trace samples (0 = the DTM
	// sampling interval, 1000).
	TraceInterval uint64
	// TraceID labels this run's samples in a shared trace stream
	// (default "benchmark/policy").
	TraceID string
}

// BlockResult aggregates one block's thermal outcome.
type BlockResult struct {
	Name            string
	AvgTemp         float64
	MaxTemp         float64
	EmergencyCycles uint64
	StressCycles    uint64
}

// ProxyResult is one window's proxy-vs-model comparison.
type ProxyResult struct {
	Window    int
	PerStruct sensor.Comparison
	ChipWide  sensor.Comparison
}

// RunDims is the run's coordinates in sweep space: the config dimensions
// experiments vary (trigger temperature, controller gains, sampling
// interval, thermal stride, instruction budget, core count), flattened
// out of the policy objects so the run catalog can index completed
// results without re-deriving policy internals. Zero means "not
// applicable to this policy" (an uncontrolled run has no trigger).
type RunDims struct {
	// Trigger is the engagement threshold or controller setpoint in
	// Celsius (Manual reports its upper band edge).
	Trigger float64 `json:"trigger,omitempty"`
	// Kp, Ki are the CT controller gains (0 for non-CT policies;
	// AdaptiveGain reports its fine-regulation KiLow).
	Kp float64 `json:"kp,omitempty"`
	Ki float64 `json:"ki,omitempty"`
	// Interval is the DTM sampling period in cycles.
	Interval uint64 `json:"interval,omitempty"`
	// Stride is the configured thermal stride (0 = auto-selected).
	Stride uint64 `json:"stride,omitempty"`
	// Insts is the committed-instruction budget.
	Insts uint64 `json:"insts,omitempty"`
	// Cores is the core count (always 1 for Sim; multicore runs set it
	// when flattened into the catalog).
	Cores int `json:"cores,omitempty"`
}

// Result is the outcome of a run.
type Result struct {
	Benchmark string
	Policy    string

	// Dims are the run's sweep-space coordinates (see RunDims).
	Dims RunDims

	// SinkDrift is the net heatsink temperature change over the run
	// (nonzero only with CoupleChipSink).
	SinkDrift float64

	Cycles uint64
	Insts  uint64
	// SurrogateCycles is always 0: every cycle runs cycle-exact since
	// the pipeline surrogate was deleted. The field stays, serialized in
	// the goldens and read by the benchmark's audit.surrogate_cycles,
	// until the next benchmark change drops that metric.
	SurrogateCycles uint64
	WallSeconds     float64
	// ThermalSeconds is the total time actually integrated by the thermal
	// network. Under frequency scaling it tracks WallSeconds to within one
	// cycle time (the fractional-step carry); without scaling they are
	// identical.
	ThermalSeconds float64

	IPC             float64
	AvgChipPower    float64
	MaxChipPower    float64
	AvgDuty         float64
	Engagements     uint64
	EmergencyCycles uint64 // cycles with any block above Emergency
	StressCycles    uint64 // cycles with any block above Stress
	StallCycles     uint64 // trigger-mechanism / resync stalls

	Blocks []BlockResult

	Proxies []ProxyResult

	// Optional traces (TraceStride > 0).
	TempTrace  *stats.Series // hottest block temperature
	DutyTrace  *stats.Series
	BlockTrace []*stats.Series // per-block temperature
}

// EmergencyFrac returns the fraction of cycles spent in thermal emergency.
func (r *Result) EmergencyFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.EmergencyCycles) / float64(r.Cycles)
}

// StressFrac returns the fraction of cycles above the stress level.
func (r *Result) StressFrac() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.StressCycles) / float64(r.Cycles)
}

// runDims flattens cfg's sweep coordinates. The primary policy (the
// hierarchy's primary, else the manager's) supplies trigger and gains; a
// standalone or backup Scaling supplies the trigger when nothing else did.
func runDims(cfg Config) RunDims {
	d := RunDims{Stride: cfg.ThermalStride, Insts: cfg.MaxInsts, Cores: 1}
	var pol dtm.Policy
	switch {
	case cfg.Hierarchy != nil:
		pol = cfg.Hierarchy.Primary
		d.Interval = dtm.DefaultSampleInterval
	case cfg.Manager != nil:
		pol = cfg.Manager.Policy
		d.Interval = cfg.Manager.Interval
	case cfg.Scaling != nil:
		d.Interval = dtm.DefaultSampleInterval
	}
	switch p := pol.(type) {
	case *dtm.Toggle:
		d.Trigger = p.Trigger
	case *dtm.Manual:
		d.Trigger = p.High
	case *dtm.CT:
		ctl := p.Controller()
		d.Trigger = ctl.Setpoint
		d.Kp = ctl.Kp
		d.Ki = ctl.Ki
	case *dtm.AdaptiveGain:
		d.Trigger = p.Setpoint
		d.Ki = p.KiLow
	}
	if d.Trigger == 0 && cfg.Scaling != nil {
		d.Trigger = cfg.Scaling.Trigger
	}
	return d
}

// InstsPerSecond returns committed instructions per wall-clock second —
// the performance metric that stays meaningful under frequency scaling.
func (r *Result) InstsPerSecond() float64 {
	if r.WallSeconds == 0 {
		return 0
	}
	return float64(r.Insts) / r.WallSeconds
}

// CycleCount reports the simulated cycle count; it implements
// runner.CycleCounter so batch engines can derive throughput metrics.
func (r *Result) CycleCount() uint64 {
	if r == nil {
		return 0
	}
	return r.Cycles
}

// proxyPair couples the Section 6 proxies for one window with the
// ProxyResult they tally into.
type proxyPair struct {
	p    *sensor.Proxy
	comp *ProxyResult
}

// Sim is one simulation instance, steppable a cycle at a time. New
// validates the configuration and allocates every buffer up front; Step
// then runs allocation-free in the steady state, which is what makes the
// per-cycle loop benchmarkable and the batch engine's throughput metrics
// meaningful. Use Run/RunContext unless you need cycle-level control.
type Sim struct {
	cfg Config
	// unit is the core this run drives; gang members share their class
	// leader's.
	unit
	// cls is the class the run steps in: its own one-member class when
	// solo, its gang class otherwise. The class keeps the cycle count and
	// the rest of the history its members share.
	cls      *gclass
	acct     thermAcct // network, temperatures and thermal bookkeeping
	mgr      *dtm.Manager
	chipNode *thermal.ChipModel
	res      *Result

	// Per-cycle state. Every slice is sized at construction.
	act      pipeline.Activity
	powerVec []float64
	sensed   []float64
	leakPeak []float64 // hoisted net.Block(i).PeakPower lookups
	// chipPowerSum sums the run's own chip power when it differs from the
	// class's (ownChip); res.MaxChipPower tracks its maximum likewise.
	chipPowerSum float64
	proxies      []proxyPair
	monitor      []int

	dt        float64
	stepCarry float64 // fractional thermal unit-steps owed (freq scaling)

	// cmd is the actuation the run's controllers command. Its stall holds
	// the stall cycles commanded at this cycle's samples until the class
	// takes them into its countdown (gclass.endCycle). Gang execution
	// compares it across members (the core is shared, so its state cannot
	// be read back per member) and re-applies it to each partition's core
	// after a fork.
	cmd actuation

	// Telemetry. pid is the closed-loop controller (if the active policy
	// wraps one), hoisted at construction so the hot loop reads its state
	// without interface assertions. The m* fields snapshot the tallies
	// already flushed to the metrics bundle, so the periodic flush pushes
	// deltas and never double-counts.
	pid     *control.PID
	mCycles uint64
	mInsts  uint64
	mStalls uint64
	mEmerg  uint64
	mStress uint64
	mEsc    uint64

	// Specialization flags, hoisted out of the hot loop so unconfigured
	// features cost one predictable branch instead of interface/struct
	// comparisons every cycle.
	hasLeak    bool
	hasSensor  bool
	hasScaling bool
	hasHier    bool
	hasProxies bool
	hasMetrics bool
	// instrumented: a telemetry sink is attached, so stepTail runs.
	instrumented bool
	// ownChip: leakage or frequency scaling may change the run's power
	// vector, so it sums its own chip power instead of the class's.
	ownChip bool
	// plain: a fast-path run with no leakage, scaling, hierarchy or sink.
	// Its power is the class's raw vector and its frequency never moves,
	// so it shares its class's window for its schedule and does work only
	// at that window's ends: the flush and, on a sample cycle, sampleDTM.
	// Every other run steps every cycle (stepMember).
	plain    bool
	finished bool
}

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes one simulation, checking ctx for cancellation every
// few thousand cycles so parallel batches can abort promptly.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(ctx)
}

// runDefaults checks the instruction budget and fills the Pipeline,
// Thresholds and MaxCycles defaults that Config and MulticoreConfig share.
// The MaxCycles default, 50 cycles per instruction, saturates at
// math.MaxUint64 rather than wrapping for huge budgets.
func runDefaults(maxInsts uint64, pcfg *pipeline.Config, th *Thresholds, maxCycles *uint64) error {
	if maxInsts == 0 {
		return fmt.Errorf("sim: MaxInsts must be positive")
	}
	if pcfg.FetchWidth == 0 {
		*pcfg = pipeline.DefaultConfig()
	}
	if *th == (Thresholds{}) {
		*th = DefaultThresholds()
	}
	if *maxCycles == 0 {
		*maxCycles = math.MaxUint64
		if maxInsts <= math.MaxUint64/50 {
			*maxCycles = 50 * maxInsts
		}
	}
	return nil
}

// New validates cfg and builds a steppable simulation: the one member of
// its own class.
func New(cfg Config) (*Sim, error) {
	s, err := newWith(cfg, nil)
	if err != nil {
		return nil, err
	}
	new(gclass).adopt([]*Sim{s})
	return s, nil
}

// newWith builds a simulation around shared, or around a core of its own
// when shared is nil, for the caller to place in a class. Gang execution
// passes the class leader's core so every member observes the same
// instruction/activity stream. The shared core is only read here —
// construction never mutates it.
func newWith(cfg Config, shared *unit) (*Sim, error) {
	if err := runDefaults(cfg.MaxInsts, &cfg.Pipeline, &cfg.Thresholds, &cfg.MaxCycles); err != nil {
		return nil, err
	}
	for _, w := range cfg.ProxyWindows {
		if w <= 0 {
			return nil, fmt.Errorf("sim: proxy window %d must be positive", w)
		}
	}

	var u unit
	if shared != nil {
		u = *shared
	} else {
		var err error
		if u, err = newUnit(cfg.Workload, cfg.Pipeline, cfg.Gating); err != nil {
			return nil, err
		}
	}
	if cfg.Leakage != nil {
		if err := cfg.Leakage.Validate(); err != nil {
			return nil, err
		}
	}
	tcfg := thermal.DefaultConfig()
	tcfg.SinkTemp = cfg.Thresholds.SinkTemp
	tcfg.Tangential = cfg.Tangential
	net, err := newNetwork(tcfg, cfg.InitTemps)
	if err != nil {
		return nil, err
	}

	mgr := cfg.Manager
	policyName := "none"
	if cfg.Hierarchy != nil {
		if mgr != nil || cfg.Scaling != nil {
			return nil, fmt.Errorf("sim: Hierarchy is mutually exclusive with Manager/Scaling")
		}
		cfg.Hierarchy.Reset()
		policyName = cfg.Hierarchy.Name()
	}
	if mgr != nil {
		mgr.Reset()
		policyName = mgr.Policy.Name()
	}
	if cfg.Scaling != nil {
		cfg.Scaling.Reset()
		policyName = joinPolicy(policyName, cfg.Scaling.Name())
	}

	nblk := net.NumBlocks()
	res := &Result{
		Benchmark: cfg.Workload.Name,
		Policy:    policyName,
		Dims:      runDims(cfg),
		Blocks:    make([]BlockResult, nblk),
	}
	for i := range res.Blocks {
		res.Blocks[i].Name = net.Block(i).ID.String()
	}

	// Proxies (Section 6).
	var proxies []proxyPair
	if len(cfg.ProxyWindows) > 0 {
		rs := make([]float64, nblk)
		for i := 0; i < nblk; i++ {
			rs[i] = net.Block(i).R
		}
		// Allocate all results first: proxyPair holds pointers into
		// the slice, so it must not grow afterwards.
		res.Proxies = make([]ProxyResult, len(cfg.ProxyWindows))
		for i, w := range cfg.ProxyWindows {
			res.Proxies[i] = ProxyResult{Window: w}
			proxies = append(proxies, proxyPair{
				p:    sensor.NewProxy(rs, w, cfg.Thresholds.SinkTemp, cfg.Thresholds.Emergency, chipProxyTriggerW),
				comp: &res.Proxies[i],
			})
		}
	}

	if cfg.TraceStride > 0 {
		res.TempTrace = stats.NewSeries(cfg.TraceStride)
		res.DutyTrace = stats.NewSeries(cfg.TraceStride)
		for i := 0; i < nblk; i++ {
			res.BlockTrace = append(res.BlockTrace, stats.NewSeries(cfg.TraceStride))
		}
	}

	var monitorIdx []int
	if len(cfg.MonitoredBlocks) > 0 {
		for _, id := range cfg.MonitoredBlocks {
			i, ok := net.Index(id)
			if !ok {
				return nil, fmt.Errorf("sim: monitored block %v not in thermal network", id)
			}
			monitorIdx = append(monitorIdx, i)
		}
	}

	var chipNode *thermal.ChipModel
	if cfg.CoupleChipSink {
		chipBlk := floorplan.ChipBlock()
		chipNode = thermal.NewChipModel(chipBlk.R, chipBlk.C, chipAmbient)
		chipNode.T = cfg.Thresholds.SinkTemp
	}

	// Thermal integration mode. Power proxies need the per-cycle
	// emergency signal and the coupled chip/sink model re-couples the
	// sink temperature every cycle, so both require the Euler path.
	fastOK := len(proxies) == 0 && !cfg.CoupleChipSink
	stride := cfg.ThermalStride
	if stride == 0 {
		stride = 1
		if fastOK {
			stride = DefaultThermalStride
		}
	}
	if stride > 1 && !fastOK {
		return nil, fmt.Errorf("sim: ThermalStride %d requires per-cycle temperatures (proxies/coupled sink); set ThermalStride to 0 or 1", cfg.ThermalStride)
	}

	if cfg.TraceInterval == 0 {
		cfg.TraceInterval = dtm.DefaultSampleInterval
	}
	if cfg.TraceID == "" {
		cfg.TraceID = cfg.Workload.Name + "/" + policyName
	}
	s := &Sim{
		cfg:      cfg,
		unit:     u,
		acct:     newThermAcct(net, cfg.Thresholds, res.Blocks, nblk, stride, windowClamps(&cfg), cfg.MaxCycles),
		mgr:      mgr,
		chipNode: chipNode,
		res:      res,

		powerVec: make([]float64, nblk),
		sensed:   make([]float64, nblk),
		leakPeak: make([]float64, nblk),
		proxies:  proxies,
		monitor:  monitorIdx,

		dt:  tcfg.CycleTime,
		cmd: fullSpeed(),

		hasLeak:    cfg.Leakage != nil,
		hasSensor:  cfg.Sensor != (sensor.Sensor{}),
		hasScaling: cfg.Scaling != nil,
		hasHier:    cfg.Hierarchy != nil,
		hasProxies: len(proxies) > 0,
		hasMetrics: cfg.Metrics != nil,
	}
	s.instrumented = cfg.TraceStride > 0 || s.hasMetrics || cfg.Trace != nil
	s.ownChip = s.hasLeak || s.hasScaling || s.hasHier
	s.plain = s.acct.fast && !s.ownChip && !s.instrumented
	for i := 0; i < nblk; i++ {
		s.leakPeak[i] = net.Block(i).PeakPower
	}

	// Telemetry wiring: find the PID behind the active policy (if any) so
	// traces and metrics can read controller internals without per-cycle
	// type assertions.
	if mgr != nil {
		if ct, ok := mgr.Policy.(*dtm.CT); ok {
			s.pid = ct.Controller()
		}
	}
	if cfg.Hierarchy != nil {
		if ct, ok := cfg.Hierarchy.Primary.(*dtm.CT); ok {
			s.pid = ct.Controller()
		}
	}
	return s, nil
}

// DefaultThermalStride is the auto-selected fast-path window length in
// cycles: long enough to amortize the window flush to noise, and five
// hundred times shorter than the shortest block time constant (49 us ≈
// 73k cycles), so constant-power windows track the per-cycle Euler
// trajectory to well under a millidegree.
const DefaultThermalStride = 256

// metricsFlushMask batches hot-loop counter flushes: every 8192 cycles the
// sim pushes the delta of its local tallies into the shared registry, so
// the per-cycle cost of metrics is a masked compare, not an atomic op.
const metricsFlushMask = 1<<13 - 1

// thermalTimeMask times one thermal solve per 1024 cycles (the Euler step
// on each multiple, or the first window flush at or after it): enough to
// populate the histogram, too rare for time.Now() to show per cycle.
const thermalTimeMask = 1<<10 - 1

// flushMetrics pushes the delta between the sim's local tallies and the
// last flush into the metrics bundle, then refreshes the state gauges.
func (s *Sim) flushMetrics() {
	m := s.cfg.Metrics
	h := &s.cls.hist
	if d := h.cycle - s.mCycles; d > 0 {
		m.Cycles.Add(int64(d))
		s.mCycles = h.cycle
	}
	if total := s.core.Stats().Committed; total > s.mInsts {
		m.Insts.Add(int64(total - s.mInsts))
		s.mInsts = total
	}
	if h.stallCycles > s.mStalls {
		m.StallCycles.Add(int64(h.stallCycles - s.mStalls))
		s.mStalls = h.stallCycles
	}
	if em := s.acct.chipEm; em > s.mEmerg {
		m.EmergencyCycles.Add(int64(em - s.mEmerg))
		s.mEmerg = em
	}
	if st := s.acct.chipSt; st > s.mStress {
		m.StressCycles.Add(int64(st - s.mStress))
		s.mStress = st
	}
	m.HotTemp.Set(maxOf(s.acct.temps))
	m.Duty.Set(s.cmd.FetchDuty)
	m.FreqFactor.Set(s.cmd.freq)
}

// recordTrace emits one structured sample, with the block temperatures
// temps at this cycle, into the shared recorder.
func (s *Sim) recordTrace(chip float64, temps []float64) {
	smp := telemetry.Sample{
		Run:         s.cfg.TraceID,
		Cycle:       s.cls.hist.cycle,
		WallSeconds: s.cls.hist.wallSeconds,
		HotTemp:     maxOf(temps),
		Duty:        s.cmd.FetchDuty,
		FreqFactor:  s.cmd.freq,
		ChipPower:   chip,
		BlockTemps:  temps,
	}
	if s.pid != nil {
		smp.PTerm, smp.ITerm, smp.DTerm = s.pid.Terms()
		smp.Saturated = s.pid.Saturated()
	}
	if s.hasHier {
		smp.Escalations = s.cfg.Hierarchy.Escalations()
	}
	s.cfg.Trace.Record(&smp)
}

// Done reports whether the run has reached its instruction or cycle
// budget.
func (s *Sim) Done() bool {
	return s.core.Stats().Committed >= s.cfg.MaxInsts || s.cls.hist.cycle >= s.cfg.MaxCycles
}

// Step advances the simulation by one clock cycle: pipeline, power,
// thermal network, bookkeeping, proxies and DTM. It performs no heap
// allocations in the steady state (traces, when enabled, amortize
// appends). Step must not be called after Finish.
//
// A solo run is the one-member case of gang execution: Step steps the
// run's own class (gclass.step). The class evaluates the shared prefix
// (pipeline step, raw block power and chip power) and the history every
// member shares; a plain run then works only at its window ends, any
// other run in stepMember. The split introduces no floating-point
// reordering: every member consumes the same inputs in the same order as
// this one-member case.
func (s *Sim) Step() {
	s.cls.step()
	s.cls.endCycle()
}

// powerFactor is the multiplier this run's frequency scaling or hierarchy
// applies to dynamic power this cycle.
func (s *Sim) powerFactor() float64 {
	switch {
	case s.hasScaling:
		return s.cfg.Scaling.PowerFactor()
	case s.hasHier:
		return s.cfg.Hierarchy.PowerFactor()
	}
	return 1
}

// stepMember advances the private state of a run that is not plain for
// one exact cycle given the class-shared activity record, raw power
// vector and its chip power: scaling and leakage, thermal integration,
// DTM sampling and the telemetry tail. base is the class leader's power
// vector and baseChip its ChipPower. A member that keeps the raw power
// (factor 1, no leakage) reads both as they are; one that adjusts it
// copies base into its own powerVec first (the leader's powerVec is base,
// adjusted in place) and sums its chip power again, so every member
// consumes bit-identical inputs and the downstream arithmetic matches a
// solo run exactly. Returns whether the run's controllers sampled.
func (s *Sim) stepMember(act *pipeline.Activity, base []float64, baseChip float64, stalled bool, cycle uint64) bool {
	powerVec, chip := base, baseChip
	if pf := s.powerFactor(); pf != 1 || s.hasLeak {
		powerVec = s.powerVec
		if &powerVec[0] != &base[0] {
			copy(powerVec, base)
		}
		if pf != 1 {
			for i := range powerVec {
				powerVec[i] *= pf
			}
		}
		if s.hasLeak {
			// Static power rides on top of the (possibly scaled) dynamic
			// power, using last cycle's temperatures.
			leak := s.cfg.Leakage
			for i := range powerVec {
				powerVec[i] += leak.Power(s.leakPeak[i], s.acct.temps[i])
			}
		}
		chip = s.pmodel.ChipPower(act, powerVec)
	}
	if s.ownChip {
		s.chipPowerSum += chip
		if chip > s.res.MaxChipPower {
			s.res.MaxChipPower = chip
		}
	}

	// Thermal advance. The fast path accumulates this cycle's power and
	// advances the RC network once per window with the closed-form
	// exponential (flushing early at every controller sample, so the
	// decisions below always observe current values; acct.temps holds
	// the window-start temperatures in between, frozen for the leakage
	// term); the Euler path is the paper's per-cycle difference
	// equation plus the per-cycle features that require it (power
	// proxies, the coupled chip/sink model). Under frequency scaling one
	// wall-clock cycle covers 1/cmd.freq unit thermal steps; the Euler
	// path carries the fractional remainder across cycles, the fast path
	// advances in continuous time so thermal time tracks wall time
	// exactly.
	if s.acct.fast {
		if s.acct.win.add(powerVec) {
			s.flush()
			s.acct.win.openAfter(cycle)
		}
	} else {
		s.stepEuler(powerVec, chip, cycle)
	}

	sampled := !stalled && s.sampleDTM(cycle)
	if s.instrumented {
		s.stepTail(chip)
	}
	return sampled
}

// stepTail feeds an instrumented run's sinks for the cycle just stepped:
// series points on cycles 1, 1+TraceStride, …, the batched metrics flush
// and recorder samples every TraceInterval cycles. It only reads the run;
// points and samples read the open fast-path window (thermAcct.current).
func (s *Sim) stepTail(chip float64) {
	cycle := s.cls.hist.cycle
	if s.cfg.TraceStride > 0 && (cycle-1)%s.cfg.TraceStride == 0 {
		res := s.res
		temps := s.acct.current(s.invF())
		res.TempTrace.Add(cycle, maxOf(temps))
		res.DutyTrace.Add(cycle, s.cmd.FetchDuty)
		for i := range res.BlockTrace {
			res.BlockTrace[i].Add(cycle, temps[i])
		}
	}
	if s.hasMetrics && cycle&metricsFlushMask == 0 {
		s.flushMetrics()
	}
	if s.cfg.Trace != nil && cycle%s.cfg.TraceInterval == 0 {
		s.recordTrace(chip, s.acct.current(s.invF()))
	}
}

// sampleDTM runs the DTM manager, frequency scaling and hierarchy
// sampling for one (non-stalled) cycle and reports whether any of them
// sampled. Policies observe the (possibly non-ideal, possibly partial)
// sensors. Manager state only changes on sample boundaries
// (StepActuation early-returns off-boundary with the actuation unchanged
// and the core setters are idempotent), so the whole block — including
// the sensor reads — runs only on boundaries.
func (s *Sim) sampleDTM(cycle uint64) bool {
	sampled := false
	if s.mgr != nil && s.mgr.Interval != 0 && cycle%s.mgr.Interval == 0 {
		sampled = true
		obs := s.acct.temps
		if s.monitor != nil {
			s.sensed = s.sensed[:0]
			for _, i := range s.monitor {
				s.sensed = append(s.sensed, s.cfg.Sensor.Read(s.acct.temps[i]))
			}
			obs = s.sensed
		} else if s.hasSensor {
			s.sensed = s.sensed[:len(s.acct.temps)]
			for i, t := range s.acct.temps {
				s.sensed[i] = s.cfg.Sensor.Read(t)
			}
			obs = s.sensed
		}
		var stall uint64
		s.cmd.Actuation, stall = s.mgr.StepActuation(cycle, obs)
		s.cmd.stall += stall
		s.cmd.apply(s.core)
		if s.hasMetrics {
			s.countDTMSample()
		}
	}
	if s.hasScaling && cycle%dtm.DefaultSampleInterval == 0 {
		sampled = true
		f, stall := s.cfg.Scaling.Sample(s.acct.temps)
		s.cmd.freq = f
		s.cmd.stall += stall
	}
	if s.hasHier && cycle%dtm.DefaultSampleInterval == 0 {
		sampled = true
		d, f, stall := s.cfg.Hierarchy.SampleHierarchy(s.acct.temps)
		s.cmd.FetchDuty = control.Quantize(d, 8)
		s.cmd.freq = f
		s.cmd.stall += stall
		s.cmd.apply(s.core)
		if s.hasMetrics {
			s.countDTMSample()
		}
	}
	return sampled
}

// stepEuler is the per-cycle thermal path: one (or, under frequency
// scaling, carry-accumulated) Euler step, the shared per-cycle
// bookkeeping, and the per-cycle consumers that require it (Section 6
// power proxies and the coupled chip/sink extension).
func (s *Sim) stepEuler(powerVec []float64, chip float64, cycle uint64) {
	res := s.res
	net := s.acct.net
	timeStep := s.hasMetrics && cycle&thermalTimeMask == 0
	var t0 time.Time
	if timeStep {
		t0 = time.Now()
	}
	if s.cmd.freq == 1 {
		net.Step(powerVec)
		res.ThermalSeconds += s.dt
	} else {
		s.stepCarry += 1 / s.cmd.freq
		steps := int(s.stepCarry)
		s.stepCarry -= float64(steps)
		for k := 0; k < steps; k++ {
			net.Step(powerVec)
		}
		res.ThermalSeconds += float64(steps) * s.dt
	}
	if timeStep {
		s.cfg.Metrics.ThermalStep.Observe(time.Since(t0).Seconds())
	}

	anyEmerg := s.acct.observe()

	// Proxies.
	if s.hasProxies {
		for _, pp := range s.proxies {
			hotS, hotC := pp.p.Step(powerVec, chip)
			pp.comp.PerStruct.Record(anyEmerg, hotS)
			pp.comp.ChipWide.Record(anyEmerg, hotC)
		}
	}

	// Heatsink drift (extension).
	if s.chipNode != nil {
		s.chipNode.Step(chip, s.wallDt())
		net.SetSinkTemp(s.chipNode.T)
	}
}

// wallDt is the wall-clock length of one cycle at the run's frequency.
func (s *Sim) wallDt() float64 {
	if s.cmd.freq != 1 {
		return s.dt / s.cmd.freq
	}
	return s.dt
}

// invF is the thermal-time scale of one wall-clock cycle under frequency
// scaling. Frequency factors change only on window-ending cycles, after
// the flush, so it is constant across every fast-path window.
func (s *Sim) invF() float64 {
	if s.cmd.freq != 1 {
		return 1 / s.cmd.freq
	}
	return 1
}

// flush closes the run's own fast-path window, which ends this cycle.
// With metrics attached, the first flush at or after each 1024-cycle mark
// (the window holds a mark) samples its solve time into the bundle.
func (s *Sim) flush() {
	cycle, w := s.cls.hist.cycle, s.acct.win.elapsed()
	if !s.hasMetrics || (cycle-w)&^thermalTimeMask == cycle&^thermalTimeMask {
		s.acct.closeWindow(s.invF())
		return
	}
	t0 := time.Now()
	s.acct.closeWindow(s.invF())
	s.cfg.Metrics.ThermalStep.Observe(time.Since(t0).Seconds())
}

// countDTMSample tallies one controller sampling event and, when the
// active policy wraps a PID, its saturation / anti-windup state. With a
// hierarchy it also forwards newly accumulated escalations.
func (s *Sim) countDTMSample() {
	m := s.cfg.Metrics
	m.DTMSamples.Inc()
	if s.pid != nil {
		if s.pid.Saturated() {
			m.SaturatedSamples.Inc()
		}
		if s.pid.Frozen() {
			m.WindupFreezes.Inc()
		}
	}
	if s.hasHier {
		if esc := s.cfg.Hierarchy.Escalations(); esc > s.mEsc {
			m.Escalations.Add(int64(esc - s.mEsc))
			s.mEsc = esc
		}
	}
}

// Finish seals the run and returns the result. It is idempotent.
func (s *Sim) Finish() *Result {
	res := s.res
	if s.finished {
		return res
	}
	s.finished = true
	s.cls.closeWindows()
	s.acct.finish(s.invF())
	// The class history is this run's: its members have shared cycle,
	// stalls, frequency, duty and (unless ownChip) chip power since
	// cycle 0. Fast-path thermal time is wall time, summed the same way.
	h := &s.cls.hist
	res.Cycles = h.cycle
	res.StallCycles = h.stallCycles
	res.WallSeconds = h.wallSeconds
	if s.acct.fast {
		res.ThermalSeconds = h.wallSeconds
	}
	if !s.ownChip {
		s.chipPowerSum, res.MaxChipPower = h.chipPowerSum, h.maxChipPower
	}
	st := s.core.Stats()
	res.Insts = st.Committed
	if h.cycle > 0 {
		res.IPC = float64(res.Insts) / float64(h.cycle)
		res.AvgDuty = h.dutySum / float64(h.cycle)
	}
	res.AvgChipPower = mean(s.chipPowerSum, h.cycle)
	res.EmergencyCycles = s.acct.chipEm
	res.StressCycles = s.acct.chipSt
	if s.mgr != nil {
		res.Engagements = s.mgr.Engagements()
	}
	if s.chipNode != nil {
		res.SinkDrift = s.chipNode.T - s.cfg.Thresholds.SinkTemp
	}
	if s.hasMetrics {
		s.flushMetrics() // make the registry exact at run end
	}
	for _, pp := range s.proxies {
		pp.p.Release() // Step may not follow Finish, so the rings are free
	}
	return res
}

// Run steps the simulation to completion (see runLoop); on cancellation
// it returns the context error and a nil result.
func (s *Sim) Run(ctx context.Context) (*Result, error) {
	if err := runLoop(ctx, s.cls.hist.cycle, s.runTo); err != nil {
		return nil, err
	}
	return s.Finish(), nil
}

// runTo steps until the run is done or reaches cycle limit.
func (s *Sim) runTo(limit uint64) (uint64, bool) {
	for s.cls.hist.cycle < limit && !s.Done() {
		s.Step()
	}
	return s.cls.hist.cycle, !s.Done()
}
