package sim

// Gang execution steps N simulations that share one (workload, seed) in
// lock-step, evaluating the expensive front half of every cycle — the
// out-of-order pipeline model and the raw per-block power evaluation —
// once per OPERATING-POINT EQUIVALENCE CLASS instead of once per member.
// A DTM study sweeps controllers against a fixed workload: until a
// policy's actuation diverges from its classmates', every member observes
// the exact same instruction and activity stream, so re-simulating the
// pipeline per member is pure redundancy. Each class owns one shared
// workload generator, core and power model; the class leader (members[0])
// drives them and every member fans the resulting power vector into its
// private thermal/DTM state via Sim.stepMember. When members' actuator
// states diverge (duty, frequency, fetch/speculation limits, or a
// trigger stall), the class forks: the divergent partitions get deep
// clones of the shared state and continue independently. Classes whose
// state re-converges exactly are merged back opportunistically.
//
// Gang results are byte-identical to solo runs of the same configs: the
// shared/member split reorders no floating-point arithmetic (see the
// seam comments in Sim.Step and Sim.stepReplay), forks clone state
// bit-exactly, and merges require bit-equal deep state. The optional
// shared calibration bank (GangOptions.ShareCalibration) is the one
// documented exception: it changes WHERE the pipeline surrogate engages
// (bounded by the same engagement audit), not what an engaged window
// replays.

import (
	"context"
	"fmt"
	"reflect"
	"runtime"

	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/workload"
)

// GangOptions tunes gang execution.
type GangOptions struct {
	// ShareCalibration shares pipeline-surrogate calibrations across the
	// gang through a read-mostly bank: a class reaching an operating
	// point another class has already calibrated adopts the donor's
	// stats and earned replay budget after one agreeing cycle-exact
	// window, instead of re-climbing the slow-start budget ladder from
	// scratch. Engagement is still audited per member against its own
	// exact windows, but results are no longer bit-identical to solo
	// runs (replay engages at different cycles). Off by default.
	ShareCalibration bool
}

// GangStats summarizes how much sharing a gang achieved.
type GangStats struct {
	Members int // gang size
	Classes int // live equivalence classes right now
	Forks   int // class splits on actuation divergence
	Merges  int // exact re-convergence merges

	// MemberCycles counts member-cycles advanced; ClassCycles counts
	// class-cycles, i.e. how many times the shared pipeline front half
	// actually ran (replay windows count their full width once).
	MemberCycles uint64
	ClassCycles  uint64
}

// Occupancy is the mean number of members served by one shared pipeline
// evaluation: MemberCycles / ClassCycles. N means perfect sharing across
// a gang of N; 1 means every member ran alone.
func (st GangStats) Occupancy() float64 {
	if st.ClassCycles == 0 {
		return 0
	}
	return float64(st.MemberCycles) / float64(st.ClassCycles)
}

// gangSig is a member's actuator state — the divergence signature. Two
// members with equal signatures consume the shared pipeline stream
// identically for the current cycle.
type gangSig struct {
	duty          float64
	freq          float64
	fetchLimit    int
	maxUnresolved int
	stallLeft     uint64
}

func sigOf(m *Sim) gangSig {
	return gangSig{
		duty:          m.duty,
		freq:          m.freqFactor,
		fetchLimit:    m.actFetchLimit,
		maxUnresolved: m.actMaxUnresolved,
		stallLeft:     m.stallLeft,
	}
}

// gclass is one operating-point equivalence class: the members in
// lock-step plus the shared objects their leader drives. members[0] is
// the leader; its act/powerVec/surrogate state serve the whole class.
type gclass struct {
	members []*Sim
	gen     *workload.Generator
	core    *pipeline.Core
	pmodel  *power.Model
	sched   int // sampling-schedule group (gangSchedKey) — merge barrier
	done    bool
}

// diverged reports whether any member's actuator state differs from the
// leader's. Five comparisons per member per cycle — cheap enough to run
// unconditionally.
func (c *gclass) diverged() bool {
	lead := c.members[0]
	for _, m := range c.members[1:] {
		if m.duty != lead.duty || m.freqFactor != lead.freqFactor ||
			m.actFetchLimit != lead.actFetchLimit ||
			m.actMaxUnresolved != lead.actMaxUnresolved ||
			m.stallLeft != lead.stallLeft {
			return true
		}
	}
	return false
}

// Gang is a set of simulations stepped in lock-step equivalence classes.
// Create with NewGang, drive with Run (or Step for cycle-level control),
// collect per-member results in config order from Run's return value.
// A Gang is single-goroutine; parallelism comes from running many gangs.
type Gang struct {
	classes []*gclass
	members []*Sim // config order
	results []*Result
	index   map[*Sim]int
	live    int // classes not yet done
	steps   uint64
	stats   GangStats
}

// mergeCheckStride paces exact re-convergence checks in class-steps: the
// pre-checks are cheap but pointless to run every cycle, since deep
// state re-converges slowly if ever. Step calls advance classBurst
// class-steps per class, so the check fires every
// mergeCheckStride/classBurst calls.
const mergeCheckStride = 4096

// mergeCheckCalls is the stride expressed in Step calls.
const mergeCheckCalls = max(1, mergeCheckStride/classBurst)

// gangSchedKey derives the config's thermal-window sampling schedule: the
// clamp intervals its fast-path windows end on (windowClamps, the list
// the engine itself schedules by). Members are only gang-able within one
// schedule group — surrogate replay advances whole thermal windows, so
// members whose windows end on different cycles cannot share a replay leg
// even while their actuator states agree.
func gangSchedKey(cfg *Config) string {
	return fmt.Sprint(windowClamps(cfg))
}

// NewGang validates cfgs and builds a gang. Every config must describe
// the same simulated experiment (workload, pipeline, gating, instruction
// and cycle budgets, thermal stride, surrogate mode) and differ only in
// the thermal/DTM dimension: policy, scaling, hierarchy, leakage, sensor
// model, thresholds, monitored blocks, initial temperatures, tangential
// flow. Per-cycle instrumentation (traces, metrics, proxies, the coupled
// chip/sink model) is rejected — it observes individual cycles in ways
// the class-shared front half cannot serve; run those configs solo.
func NewGang(cfgs []Config, opt GangOptions) (*Gang, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one config")
	}
	ref := &cfgs[0]
	seenCtl := make(map[interface{}]int)
	for i := range cfgs {
		cfg := &cfgs[i]
		switch {
		case len(cfg.ProxyWindows) > 0:
			return nil, fmt.Errorf("sim: gang config %d: ProxyWindows require per-cycle execution; run solo", i)
		case cfg.CoupleChipSink:
			return nil, fmt.Errorf("sim: gang config %d: CoupleChipSink requires per-cycle execution; run solo", i)
		case cfg.TraceStride != 0:
			return nil, fmt.Errorf("sim: gang config %d: TraceStride is unsupported in a gang; run solo", i)
		case cfg.Trace != nil || cfg.Metrics != nil:
			return nil, fmt.Errorf("sim: gang config %d: telemetry instrumentation is unsupported in a gang; run solo", i)
		}
		if !reflect.DeepEqual(cfg.Workload, ref.Workload) {
			return nil, fmt.Errorf("sim: gang config %d: Workload differs from config 0", i)
		}
		if !reflect.DeepEqual(cfg.Pipeline, ref.Pipeline) {
			return nil, fmt.Errorf("sim: gang config %d: Pipeline differs from config 0", i)
		}
		if cfg.Gating != ref.Gating || cfg.MaxInsts != ref.MaxInsts ||
			cfg.MaxCycles != ref.MaxCycles || cfg.ThermalStride != ref.ThermalStride ||
			cfg.PipelineSurrogate != ref.PipelineSurrogate {
			return nil, fmt.Errorf("sim: gang config %d: execution parameters (Gating/MaxInsts/MaxCycles/ThermalStride/PipelineSurrogate) differ from config 0", i)
		}
		// Controllers are stateful and Reset by construction: sharing one
		// instance across members would share controller state.
		for _, p := range []interface{}{anyOf(cfg.Manager), anyOf(cfg.Scaling), anyOf(cfg.Hierarchy)} {
			if p == nil {
				continue
			}
			if j, dup := seenCtl[p]; dup {
				return nil, fmt.Errorf("sim: gang configs %d and %d share one controller instance; give each config its own", j, i)
			}
			seenCtl[p] = i
		}
	}

	g := &Gang{
		members: make([]*Sim, 0, len(cfgs)),
		results: make([]*Result, len(cfgs)),
		index:   make(map[*Sim]int, len(cfgs)),
	}
	// Partition by sampling schedule, preserving config order within and
	// across groups (first appearance orders the group).
	groups := make(map[string]int)
	var order []string
	byGroup := make(map[string][]int)
	for i := range cfgs {
		k := gangSchedKey(&cfgs[i])
		if _, ok := groups[k]; !ok {
			groups[k] = len(order)
			order = append(order, k)
		}
		byGroup[k] = append(byGroup[k], i)
	}

	var bank *calBank
	for sched, k := range order {
		idxs := byGroup[k]
		lead, err := newWith(cfgs[idxs[0]], nil, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: gang config %d: %w", idxs[0], err)
		}
		c := &gclass{
			members: []*Sim{lead},
			gen:     lead.gen,
			core:    lead.core,
			pmodel:  lead.pmodel,
			sched:   sched,
		}
		for _, i := range idxs[1:] {
			m, err := newWith(cfgs[i], c.gen, c.core, c.pmodel)
			if err != nil {
				return nil, fmt.Errorf("sim: gang config %d: %w", i, err)
			}
			c.members = append(c.members, m)
		}
		if opt.ShareCalibration && lead.sur {
			if bank == nil {
				bank = newCalBank(len(lead.powerVec))
			}
			for _, m := range c.members {
				m.surBank = bank
			}
		}
		for j, i := range idxs {
			g.index[c.members[j]] = i
			g.members = append(g.members, c.members[j])
		}
		g.classes = append(g.classes, c)
	}
	g.live = len(g.classes)
	g.stats.Members = len(cfgs)
	g.stats.Classes = len(g.classes)
	return g, nil
}

// anyOf boxes a typed nil-able pointer so a nil Manager and a nil Scaling
// don't collide in the duplicate-controller map.
func anyOf[T any](p *T) interface{} {
	if p == nil {
		return nil
	}
	return p
}

// classBurst is how many class-steps Step advances one class before
// moving to the next. Classes are fully independent after a fork, so
// lock-step across classes is only needed opportunistically (merging
// requires the classes to meet at the same cycle, which exact classes
// advancing equal bursts still do); bursting keeps a class's working
// set — pipeline, caches, workload tables, thermal state — hot instead
// of evicting it on every round-robin turn.
const classBurst = 128

// Step advances every unfinished class by one burst of class-steps; a
// class-step is one exact cycle, or one whole replay window when the
// class leader's surrogate engages. Classes forked during this call
// start stepping on the next call (they are already caught up — a fork
// happens after the cycle that revealed the divergence). Returns false
// once every member has finished; results are collected by Run.
func (g *Gang) Step() bool {
	n := len(g.classes)
	for ci := 0; ci < n; ci++ {
		c := g.classes[ci]
		if c.done {
			continue
		}
		for k := 0; k < classBurst && !c.done; k++ {
			g.stepClass(c)
			if c.members[0].Done() {
				// Done() is class-uniform: the committed count comes from
				// the shared core and the budgets/virtual credits are
				// validated/kept uniform.
				c.done = true
				g.live--
				for _, m := range c.members {
					g.results[g.index[m]] = m.Finish()
				}
			}
		}
	}
	g.steps++
	if g.live > 1 && g.steps%mergeCheckCalls == 0 {
		g.tryMerge()
	}
	g.stats.Classes = g.live
	return g.live > 0
}

// stepClass runs one class-step: the shared front half once, the member
// fan-out, the divergence check, and the leader's calibration update.
// Allocation-free except when a fork fires.
func (g *Gang) stepClass(c *gclass) {
	lead := c.members[0]
	if lead.sur && lead.stallLeft == 0 {
		if cal := lead.replayable(); cal != nil {
			g.replayClass(c, cal)
			return
		}
	}
	stalled := lead.stallLeft > 0
	if stalled {
		lead.act.Reset() // the clock runs but the shared pipeline is idle
	} else {
		c.core.Step(&lead.act)
	}
	c.pmodel.BlockPower(&lead.act, lead.powerVec)
	if lead.sur {
		// Class-level calibration accumulators, exactly as in solo Step.
		acc := lead.surPowAcc
		for i, p := range lead.powerVec {
			acc[i] += p
		}
		lead.surExtraAcc += c.pmodel.ChipOverhead(&lead.act)
	}
	// Fan out with the leader LAST: stepMember scales its powerVec in
	// place (frequency factor, leakage), and the leader's powerVec IS the
	// shared raw vector — stepping it first would hand every later member
	// a base already scaled by the leader's factors. Leader-last also
	// leaves the shared core's actuation registers holding the leader's
	// own values, which its surUpdate reads through curKey.
	for _, m := range c.members[1:] {
		m.stepMember(&lead.act, lead.powerVec, stalled)
	}
	lead.stepMember(&lead.act, lead.powerVec, stalled)
	g.stats.MemberCycles += uint64(len(c.members))
	g.stats.ClassCycles++

	// stepMember ran each member's DTM sample; fork before the leader's
	// surUpdate so every partition's new leader starts its own span from
	// a bit-exact copy of the pre-update accumulators and then advances
	// it under its own operating point, exactly as its solo run would.
	start := len(g.classes)
	if len(c.members) > 1 && c.diverged() {
		g.fork(c)
	}
	if lead.sur {
		lead.surUpdate(stalled)
		for _, nc := range g.classes[start:] {
			nc.members[0].surUpdate(stalled)
		}
	}
}

// replayClass advances the whole class across one surrogate replay window
// calibrated by the leader. Window length, instruction credit and carry
// are computed once — every input is class-uniform — and fanned out;
// class-level stream/calibration bookkeeping mirrors the solo stepReplay
// line for line.
func (g *Gang) replayClass(c *gclass, cal *surCal) {
	lead := c.members[0]
	w := lead.replayWindow(cal)
	fw := float64(w)
	insts := cal.ipc*fw + lead.surCarry
	n := uint64(insts)
	carry := insts - float64(n)
	for _, m := range c.members {
		m.replayMember(cal, w, n, carry)
	}
	g.stats.MemberCycles += uint64(len(c.members)) * w
	g.stats.ClassCycles += w

	c.gen.Skip(n)
	cal.replayed += w
	lead.surPause()
	cal.splice = true
	cal.legSince = true
	lead.surAccOK = false

	// The boundary DTM sample inside replayMember can diverge members.
	// Forked leaders clone the post-splice surrogate state and the
	// post-skip stream, so their next exact window resumes exactly where
	// a solo run of that member would.
	if len(c.members) > 1 && c.diverged() {
		g.fork(c)
	}
}

// fork splits c into one class per distinct actuator signature. The
// partition containing the old leader keeps the shared objects; every
// other partition deep-clones the workload generator, core and power
// model, promotes its first member to leader, and copies the old leader's
// surrogate state into it. Each partition's actuation is then re-asserted
// on its core: the setters are idempotent plain writes, so re-asserting
// the signature the last DTM sample chose reproduces exactly the state a
// solo run's core would hold. Forks allocate; they fire only on actuation
// divergence, which is rare at the cycle scale.
func (g *Gang) fork(c *gclass) {
	oldLead := c.members[0]
	var sigs []gangSig
	var parts [][]*Sim
	for _, m := range c.members {
		sig := sigOf(m)
		idx := -1
		for i := range sigs {
			if sigs[i] == sig {
				idx = i
				break
			}
		}
		if idx < 0 {
			sigs = append(sigs, sig)
			parts = append(parts, nil)
			idx = len(parts) - 1
		}
		parts[idx] = append(parts[idx], m)
	}
	// parts[0] holds the old leader (first-seen order) and keeps the
	// shared objects in place.
	c.members = parts[0]
	reassert(c.core, c.members[0])
	for _, p := range parts[1:] {
		gen2 := c.gen.Clone()
		core2 := c.core.Clone(gen2)
		pm2 := c.pmodel.Clone()
		for _, m := range p {
			m.gen, m.core, m.pmodel = gen2, core2, pm2
		}
		newLead := p[0]
		if newLead.sur {
			newLead.cloneSurrogateFrom(oldLead)
		}
		nc := &gclass{members: p, gen: gen2, core: core2, pmodel: pm2, sched: c.sched}
		reassert(core2, newLead)
		g.classes = append(g.classes, nc)
		g.live++
		g.stats.Forks++
	}
}

// reassert writes lead's actuator state onto core. The shared core last
// saw the actuation of whichever member sampled last; each partition's
// core must reflect its own leader's.
func reassert(core *pipeline.Core, lead *Sim) {
	core.SetFetchDuty(lead.duty)
	core.SetFetchLimit(lead.actFetchLimit)
	core.SetMaxUnresolvedBranches(lead.actMaxUnresolved)
}

// tryMerge merges classes whose deep state has re-converged exactly.
// Byte-identity admits no approximate merge: two classes may be merged
// only when their shared objects (core, generator, power model), window
// position, replay carry and calibration stores are bit-equal — then
// folding one class's members under the other's leader changes no
// member's future trajectory. The cheap pre-checks (signature, cycle,
// core snapshot) reject almost everything before the reflect.DeepEqual
// deep compare runs.
func (g *Gang) tryMerge() {
	for i := 0; i < len(g.classes); i++ {
		a := g.classes[i]
		if a.done {
			continue
		}
		for j := i + 1; j < len(g.classes); j++ {
			b := g.classes[j]
			if b.done || b.sched != a.sched {
				continue
			}
			if !mergeable(a, b) {
				continue
			}
			// Fold b's members under a's leader and shared objects.
			for _, m := range b.members {
				m.gen, m.core, m.pmodel = a.gen, a.core, a.pmodel
			}
			a.members = append(a.members, b.members...)
			b.members = nil
			b.done = true
			g.live--
			g.stats.Merges++
		}
	}
}

// mergeable runs the exact re-convergence test for two live classes.
func mergeable(a, b *gclass) bool {
	la, lb := a.members[0], b.members[0]
	if sigOf(la) != sigOf(lb) || la.cycle != lb.cycle ||
		la.acct.winLen != lb.acct.winLen || la.acct.winLeft != lb.acct.winLeft ||
		la.surCarry != lb.surCarry || la.virtInsts != lb.virtInsts {
		return false
	}
	if a.core.Snapshot() != b.core.Snapshot() || a.core.Stats() != b.core.Stats() {
		return false
	}
	if !reflect.DeepEqual(a.core, b.core) || !reflect.DeepEqual(a.gen, b.gen) ||
		!reflect.DeepEqual(a.pmodel, b.pmodel) {
		return false
	}
	if la.sur {
		// The surviving leader's calibration store will serve b's
		// members: it must match what b's leader would have used.
		if la.surAccKey != lb.surAccKey || la.surAccOK != lb.surAccOK ||
			la.surWarm != lb.surWarm || la.surExtraAcc != lb.surExtraAcc ||
			la.surSnap0 != lb.surSnap0 ||
			!reflect.DeepEqual(la.surPowAcc, lb.surPowAcc) ||
			!reflect.DeepEqual(la.surCals, lb.surCals) {
			return false
		}
	}
	return true
}

// Stats returns the gang's sharing statistics so far.
func (g *Gang) Stats() GangStats { return g.stats }

// Run steps the gang to completion and returns per-member results in the
// order of the configs passed to NewGang. Context checks and scheduler
// yields are paced on class-cycles, mirroring the solo Run loop.
func (g *Gang) Run(ctx context.Context) ([]*Result, error) {
	done := ctx.Done()
	check := g.stats.ClassCycles + ctxCheckInterval
	for g.Step() {
		if g.stats.ClassCycles >= check {
			check = g.stats.ClassCycles + ctxCheckInterval
			if done != nil {
				select {
				case <-done:
					return nil, context.Cause(ctx)
				default:
				}
			}
			runtime.Gosched()
		}
	}
	return g.results, nil
}
