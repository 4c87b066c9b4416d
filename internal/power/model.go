package power

import (
	"fmt"

	"repro/internal/floorplan"
	"repro/internal/pipeline"
)

// GatingStyle selects the conditional-clocking assumption (Wattch's cc
// styles).
type GatingStyle int

const (
	// GateResidual10: unused structures still dissipate 10% of peak;
	// used structures scale with port usage (Wattch cc3). This is the
	// zero value and the default, matching the paper's TM Wattch
	// configuration.
	GateResidual10 GatingStyle = iota
	// GateIdeal: unused structures dissipate nothing; used structures
	// scale linearly with port usage (Wattch cc2).
	GateIdeal
	// GateNone: the clock is never gated; every structure dissipates its
	// full power every cycle (Wattch cc0).
	GateNone
)

// String names the gating style.
func (g GatingStyle) String() string {
	switch g {
	case GateNone:
		return "cc0"
	case GateIdeal:
		return "cc2"
	case GateResidual10:
		return "cc3"
	}
	return fmt.Sprintf("gating(%d)", int(g))
}

// residual returns the idle fraction of peak power.
func (g GatingStyle) residual() float64 {
	switch g {
	case GateNone:
		return 1
	case GateIdeal:
		return 0
	default:
		return 0.10
	}
}

// eventKind indexes the per-block event energy table.
type eventKind int

const (
	evRead eventKind = iota
	evWrite
	evMatch
	evOp
	numEventKinds
)

// blockModel holds one structure's calibrated event energies.
type blockModel struct {
	id floorplan.BlockID
	// energy[k] is joules per event of kind k, after calibration.
	energy [numEventKinds]float64
	peakW  float64
	// ewma smooths the dynamic power over ~32 cycles before the peak
	// clamp. Pipeline activity is extremely bursty cycle to cycle; the
	// thermal time constants (tens of microseconds) cannot resolve that
	// granularity, and clamping the raw bursts at the peak would bias
	// the calibrated average downward.
	ewma float64
}

// ewmaAlpha is the smoothing factor of the pre-clamp power filter.
const ewmaAlpha = 1.0 / 32

// minNormal is the smallest normal float64. An idle block's EWMA decays by
// 31/32 a cycle until, after about 22 000 cycles, it turns subnormal and
// stops decaying (α·x rounds away); every later cycle would then pay
// subnormal arithmetic, which x86 runs through a microcode assist. BlockPower
// flushes such a value to 0. Output bits do not move: a subnormal added to
// the residual res·peakW, or to any dynamic watt value, rounds away, so the
// only visible difference is GateIdeal's idle output reading 0 instead of a
// subnormal (see DESIGN.md).
const minNormal = 0x1p-1022

// hotRates is the reference activity vector of the hottest sustained
// workload: average events per cycle per kind, measured on the most
// intense suite members (gcc/mesa/vortex for the integer side, the FP
// benchmarks for FPExec). Calibration pins this vector to 90% of each
// block's Table 3 peak power, with the 10% clock-gating residual
// supplying the rest; per-cycle power is clamped at the peak. This mirrors
// how Wattch's per-access energies are fit to reported chip powers rather
// than to theoretical port bandwidth, which real pipelines never sustain.
// The anchors carry per-structure headroom above the measured suite maxima:
// counters that saturate for any active workload (window inserts, whose
// rate is dominated by wrong-path dispatch) get ~35% headroom so they
// discriminate between tiers, while well-differentiated counters (int/FP
// op rates, bpred lookups) sit close to the hottest benchmark's rate so
// that benchmark genuinely reaches emergency in that structure.
var hotRates = map[floorplan.BlockID][numEventKinds]float64{
	floorplan.LSQ:     {evWrite: 1.05, evMatch: 0.66},
	floorplan.Window:  {evWrite: 2.7, evRead: 2.43, evMatch: 2.36},
	floorplan.RegFile: {evRead: 3.6, evWrite: 1.9},
	floorplan.BPred:   {evRead: 0.56},
	floorplan.DCache:  {evRead: 0.78},
	floorplan.IntExec: {evOp: 1.12},
	floorplan.FPExec:  {evOp: 0.55},
}

// Config parameterizes the model.
type Config struct {
	Tech Tech
	// Blocks provides the peak-power calibration targets (Table 3).
	Blocks []floorplan.Block
	// Gating is the conditional-clocking style (default GateResidual10).
	Gating GatingStyle
	// Pipeline is the core configuration the activity counts come from;
	// port/width limits size the arrays and peak event counts.
	Pipeline pipeline.Config
}

// DefaultConfig returns the paper's configuration.
func DefaultConfig() Config {
	return Config{
		Tech:     DefaultTech(),
		Blocks:   floorplan.Default(),
		Gating:   GateResidual10,
		Pipeline: pipeline.DefaultConfig(),
	}
}

// actSlot indexes the flattened per-cycle activity vector BlockPower
// builds from an Activity record. Converting each counter to float64 once
// and addressing it by index keeps the per-block power computation
// branchless.
type actSlot uint8

const (
	slLSQInserts actSlot = iota
	slLSQSearches
	slWindowInserts
	slWindowIssues
	slWindowWakeups
	slRegReads
	slRegWrites
	slBPredAccess
	slDCacheAccess
	slIntOps
	slFPOps
	slZero // always 0: pad slot for unused terms
	numActSlots
)

// blockTerms is one block's dynamic energy as up to three precomputed
// (activity slot, joules/event) products. Unused terms point at slZero
// with zero energy, so every block evaluates exactly three multiply-adds
// in the event-kind order the calibration loop used (additions of 0.0
// keep the sum bit-identical).
type blockTerms struct {
	s0, s1, s2 actSlot
	e0, e1, e2 float64
}

// Model converts per-cycle pipeline activity into per-block watts.
type Model struct {
	cfg    Config
	blocks []blockModel
	terms  []blockTerms
	// index by floorplan block id for the sim's power vector layout.
	byID [floorplan.NumBlocks]int
	// Hot-loop invariants hoisted out of the per-cycle calls.
	dt          float64 // cycle time, cached
	gateNone    bool
	residual    float64
	commitWidth float64
	fetchWidth  float64
	// Non-tracked chip power components.
	otherBaseW float64 // clock tree, I/O, decode: always-on share
	otherDynW  float64 // icache/L2/front-end dynamic share at full tilt
}

// termsFor flattens the events() mapping for one block into slot/energy
// pairs ordered by event kind, preserving the original accumulation order.
func termsFor(id floorplan.BlockID, energy [numEventKinds]float64) blockTerms {
	type se struct {
		s actSlot
		e float64
	}
	var list []se
	add := func(s actSlot, k eventKind) {
		if energy[k] != 0 {
			list = append(list, se{s, energy[k]})
		}
	}
	// Kind order matters: evRead, evWrite, evMatch, evOp — the order the
	// calibrated sum was accumulated in.
	switch id {
	case floorplan.LSQ:
		add(slLSQInserts, evWrite)
		add(slLSQSearches, evMatch)
	case floorplan.Window:
		add(slWindowIssues, evRead)
		add(slWindowInserts, evWrite)
		add(slWindowWakeups, evMatch)
	case floorplan.RegFile:
		add(slRegReads, evRead)
		add(slRegWrites, evWrite)
	case floorplan.BPred:
		add(slBPredAccess, evRead)
	case floorplan.DCache:
		add(slDCacheAccess, evRead)
	case floorplan.IntExec:
		add(slIntOps, evOp)
	case floorplan.FPExec:
		add(slFPOps, evOp)
	}
	t := blockTerms{s0: slZero, s1: slZero, s2: slZero}
	if len(list) > 0 {
		t.s0, t.e0 = list[0].s, list[0].e
	}
	if len(list) > 1 {
		t.s1, t.e1 = list[1].s, list[1].e
	}
	if len(list) > 2 {
		t.s2, t.e2 = list[2].s, list[2].e
	}
	return t
}

// New builds and calibrates the model. Calibration scales each block's
// capacitance-derived event energies by a single factor so that the block
// at maximum per-cycle activity dissipates exactly its Table 3 peak power.
func New(cfg Config) (*Model, error) {
	if cfg.Tech.FreqHz <= 0 || cfg.Tech.Vdd <= 0 {
		return nil, fmt.Errorf("power: invalid technology %+v", cfg.Tech)
	}
	if len(cfg.Blocks) == 0 {
		return nil, fmt.Errorf("power: no blocks to calibrate against")
	}
	t := cfg.Tech
	pc := cfg.Pipeline
	if pc.FetchWidth == 0 {
		pc = pipeline.DefaultConfig()
	}

	// Array geometries for the seven tracked structures.
	lsqArr := ArraySpec{Rows: pc.LSQSize, Bits: 80, ReadPorts: pc.MemPorts, WritePorts: pc.DecodeWidth, CAM: true}
	winArr := ArraySpec{Rows: pc.RUUSize, Bits: 200, ReadPorts: pc.IssueWidth, WritePorts: pc.DecodeWidth, CAM: true}
	regArr := ArraySpec{Rows: 64, Bits: 64, ReadPorts: 2 * pc.IssueWidth, WritePorts: pc.CommitWidth}
	bprArr := ArraySpec{Rows: 4096, Bits: 2, ReadPorts: 1, WritePorts: 1}
	dcArr := ArraySpec{Rows: 1024, Bits: 2 * 256, ReadPorts: pc.MemPorts, WritePorts: 1}

	specs := map[floorplan.BlockID][numEventKinds]float64{
		floorplan.LSQ: {evWrite: lsqArr.WriteEnergy(t), evMatch: lsqArr.MatchEnergy(t)},
		floorplan.Window: {
			evWrite: winArr.WriteEnergy(t), evRead: winArr.ReadEnergy(t), evMatch: winArr.MatchEnergy(t)},
		floorplan.RegFile: {evRead: regArr.ReadEnergy(t), evWrite: regArr.WriteEnergy(t)},
		// Lookups read three PHTs plus the BTB, and commit-time
		// updates are reported through the same counter; fold both
		// into one effective access energy.
		floorplan.BPred:   {evRead: 4 * bprArr.ReadEnergy(t)},
		floorplan.DCache:  {evRead: dcArr.ReadEnergy(t)},
		floorplan.IntExec: {evOp: ALUEnergy(t, IntALUCap)},
		floorplan.FPExec:  {evOp: ALUEnergy(t, FPALUCap)},
	}

	m := &Model{cfg: cfg}
	dt := t.CycleTime()
	for _, b := range cfg.Blocks {
		energies, ok := specs[b.ID]
		if !ok {
			return nil, fmt.Errorf("power: no structural model for block %v", b.ID)
		}
		rates, ok := hotRates[b.ID]
		if !ok {
			return nil, fmt.Errorf("power: no hot-rate calibration for block %v", b.ID)
		}
		// Pin the reference hot activity vector to 90% of the Table 3
		// peak (the gating residual supplies the remaining 10%).
		var hotRaw float64
		for k := 0; k < int(numEventKinds); k++ {
			hotRaw += rates[k] * energies[k]
		}
		hotRaw /= dt
		if hotRaw <= 0 {
			return nil, fmt.Errorf("power: block %v has zero hot-rate power", b.ID)
		}
		scale := 0.9 * b.PeakPower / hotRaw
		bm := blockModel{id: b.ID, peakW: b.PeakPower}
		for k := 0; k < int(numEventKinds); k++ {
			bm.energy[k] = energies[k] * scale
		}
		m.byID[b.ID] = len(m.blocks)
		m.blocks = append(m.blocks, bm)
		m.terms = append(m.terms, termsFor(b.ID, bm.energy))
	}
	// Untracked chip power: front end, I-cache, L2, clock tree, result
	// buses. Sized so total chip power lands in the paper's tens of
	// watts; the base share runs whenever the clock does.
	m.otherBaseW = 8.0
	m.otherDynW = 14.0
	m.dt = dt
	m.gateNone = cfg.Gating == GateNone
	m.residual = cfg.Gating.residual()
	cw := pc.CommitWidth
	if cw == 0 {
		cw = 6
	}
	m.commitWidth = float64(cw)
	fw := pc.FetchWidth
	if fw < 1 {
		fw = 1
	}
	m.fetchWidth = float64(fw)
	return m, nil
}

// Clone returns an independent deep copy of the model. The model is not
// stateless: BlockPower advances each block's EWMA pre-clamp filter, so a
// forked simulation needs its own copy to keep producing the powers the
// original would have.
func (m *Model) Clone() *Model {
	q := *m
	q.blocks = append(m.blocks[:0:0], m.blocks...)
	q.terms = append(m.terms[:0:0], m.terms...)
	return &q
}

// NumBlocks returns the number of modeled blocks.
func (m *Model) NumBlocks() int { return len(m.blocks) }

// BlockID returns the floorplan identity of model index i.
func (m *Model) BlockID(i int) floorplan.BlockID { return m.blocks[i].id }

// events extracts the per-kind event counts of block id from an activity
// record.
func events(id floorplan.BlockID, act *pipeline.Activity) [numEventKinds]int {
	var ev [numEventKinds]int
	switch id {
	case floorplan.LSQ:
		ev[evWrite] = act.LSQInserts
		ev[evMatch] = act.LSQSearches
	case floorplan.Window:
		ev[evWrite] = act.WindowInserts
		ev[evRead] = act.WindowIssues
		ev[evMatch] = act.WindowWakeups
	case floorplan.RegFile:
		ev[evRead] = act.RegReads
		ev[evWrite] = act.RegWrites
	case floorplan.BPred:
		ev[evRead] = act.BPredAccess
	case floorplan.DCache:
		ev[evRead] = act.DCacheAccess
	case floorplan.IntExec:
		ev[evOp] = act.IntOps
	case floorplan.FPExec:
		ev[evOp] = act.FPOps
	}
	return ev
}

// BlockPower fills out with this cycle's per-block power in watts, indexed
// in the model's block order (matching the floorplan order used to build
// the thermal network). out must have NumBlocks entries.
//
// The hot loop is branchless: the activity record is flattened into a
// float64 vector once, and each block evaluates three precomputed
// slot/energy products in the calibration's event-kind order (bit-identical
// to the original per-kind accumulation).
func (m *Model) BlockPower(act *pipeline.Activity, out []float64) {
	if len(out) != len(m.blocks) {
		panic(fmt.Sprintf("power: BlockPower out len %d, want %d", len(out), len(m.blocks)))
	}
	if m.gateNone {
		for i := range m.blocks {
			out[i] = m.blocks[i].peakW
		}
		return
	}
	var av [numActSlots]float64
	av[slLSQInserts] = float64(act.LSQInserts)
	av[slLSQSearches] = float64(act.LSQSearches)
	av[slWindowInserts] = float64(act.WindowInserts)
	av[slWindowIssues] = float64(act.WindowIssues)
	av[slWindowWakeups] = float64(act.WindowWakeups)
	av[slRegReads] = float64(act.RegReads)
	av[slRegWrites] = float64(act.RegWrites)
	av[slBPredAccess] = float64(act.BPredAccess)
	av[slDCacheAccess] = float64(act.DCacheAccess)
	av[slIntOps] = float64(act.IntOps)
	av[slFPOps] = float64(act.FPOps)
	dt, res := m.dt, m.residual
	for i := range m.blocks {
		b := &m.blocks[i]
		t := &m.terms[i]
		dyn := av[t.s0]*t.e0 + av[t.s1]*t.e1 + av[t.s2]*t.e2
		e := b.ewma + ewmaAlpha*(dyn/dt-b.ewma)
		if e < minNormal {
			e = 0 // idle tail: see minNormal
		}
		b.ewma = e
		p := e + res*b.peakW
		if p > b.peakW {
			p = b.peakW
		}
		out[i] = p
	}
}

// ChipPower returns total chip power: the tracked blocks plus the
// untracked remainder (clock tree, front end, I-cache, L2), whose dynamic
// share scales with fetch/commit activity.
func (m *Model) ChipPower(act *pipeline.Activity, blockPowers []float64) float64 {
	var total float64
	for _, p := range blockPowers {
		total += p
	}
	return total + m.ChipOverhead(act)
}

// ChipOverhead returns the non-block share of one cycle's chip power: the
// always-on base (clock tree, I/O, decode) plus the dynamic share of the
// untracked structures, scaled by a commit/fetch utilization estimate.
// ChipPower adds it to the block sum; the multicore engine calls it
// directly to scale each core's share by that core's power factor.
func (m *Model) ChipOverhead(act *pipeline.Activity) float64 {
	util := float64(act.Commits) / m.commitWidth
	if act.FetchEnabled {
		util += 0.5 * float64(act.Fetched) / m.fetchWidth
	}
	if util > 1 {
		util = 1
	}
	return m.otherBaseW + m.otherDynW*util
}

// PeakChipPower returns the calibrated whole-chip peak.
func (m *Model) PeakChipPower() float64 {
	var total float64
	for _, b := range m.blocks {
		total += b.peakW
	}
	return total + m.otherBaseW + m.otherDynW
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
