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
// drives them and every member fans the resulting power vector and chip
// power into its private thermal/DTM state via Sim.stepMember. When members' actuator
// states diverge (duty, frequency, fetch/speculation limits, or a
// trigger stall), the class forks: the divergent partitions get deep
// clones of the shared state and continue independently. A fork is final:
// classes are never merged back. The 40 gangs of Tables 11 and 13 at
// 2 000 000 instructions and of the four default sweep grids forked 109
// times, and an exact re-convergence check of the shared deep state
// (caches, predictor, workload position) never passed.
//
// Gang results are byte-identical to solo runs of the same configs: the
// shared/member split reorders no floating-point arithmetic (see the
// seam comment in Sim.Step), and forks clone state bit-exactly.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"

	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/workload"
)

// GangOptions tunes gang execution. It has no options: gang execution
// has one exact mode. The type keeps NewGang's signature stable for its
// callers.
type GangOptions struct{}

// GangStats summarizes how much sharing a gang achieved.
type GangStats struct {
	Members int // gang size
	Classes int // live equivalence classes right now
	Forks   int // class splits on actuation divergence
	// Merges is always 0: forks are final. It stays until the benchmark,
	// which reads it, drops it.
	Merges int

	// MemberCycles counts member-cycles advanced; ClassCycles counts
	// class-cycles, i.e. how many times the shared pipeline front half
	// actually ran.
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
// the leader; its act/powerVec serve the whole class.
type gclass struct {
	members []*Sim
	gen     *workload.Generator
	core    *pipeline.Core
	pmodel  *power.Model
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
	results []*Result
	index   map[*Sim]int
	live    int // classes not yet done
	stats   GangStats
}

// GangCompatible is the rule for which configs may share a gang: it
// returns nil when cfg may be stepped in one gang led by lead, or the
// reason it may not. Members must describe the same simulated experiment
// (workload, pipeline, gating, instruction and cycle budgets, thermal
// stride) and may differ only in the thermal/DTM dimension: policy,
// scaling, hierarchy, leakage, sensor model, thresholds, monitored
// blocks, initial temperatures, tangential flow. Each member keeps its
// own thermal accounting, so members whose fast-path windows end on
// different cycles still share a class. Per-cycle instrumentation
// (traces, metrics, proxies, the coupled chip/sink model) observes
// individual cycles in ways the class-shared front half cannot serve, so
// a config carrying any of it, as lead or member, joins no gang;
// GangCompatible(cfg, cfg) reports exactly that.
func GangCompatible(lead, cfg *Config) error {
	for _, c := range []*Config{lead, cfg} {
		switch {
		case len(c.ProxyWindows) > 0:
			return errors.New("ProxyWindows require per-cycle execution; run solo")
		case c.CoupleChipSink:
			return errors.New("CoupleChipSink requires per-cycle execution; run solo")
		case c.TraceStride != 0:
			return errors.New("TraceStride is unsupported in a gang; run solo")
		case c.Trace != nil || c.Metrics != nil:
			return errors.New("telemetry instrumentation is unsupported in a gang; run solo")
		}
	}
	switch {
	case cfg.Gating != lead.Gating || cfg.MaxInsts != lead.MaxInsts ||
		cfg.MaxCycles != lead.MaxCycles || cfg.ThermalStride != lead.ThermalStride:
		return errors.New("execution parameters (Gating/MaxInsts/MaxCycles/ThermalStride) differ from the lead's")
	case !reflect.DeepEqual(cfg.Workload, lead.Workload):
		return errors.New("workload differs from the lead's")
	case !reflect.DeepEqual(cfg.Pipeline, lead.Pipeline):
		return errors.New("pipeline config differs from the lead's")
	}
	return nil
}

// NewGang validates cfgs against GangCompatible, with config 0 as the
// lead, and builds a gang of one class in config order. Each config must
// also own its controllers.
func NewGang(cfgs []Config, _ GangOptions) (*Gang, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("sim: gang needs at least one config")
	}
	ref := &cfgs[0]
	seenCtl := make(map[interface{}]int)
	for i := range cfgs {
		cfg := &cfgs[i]
		if err := GangCompatible(ref, cfg); err != nil {
			return nil, fmt.Errorf("sim: gang config %d: %w", i, err)
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

	lead, err := newWith(cfgs[0], nil, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("sim: gang config 0: %w", err)
	}
	c := &gclass{
		members: []*Sim{lead},
		gen:     lead.gen,
		core:    lead.core,
		pmodel:  lead.pmodel,
	}
	for i := 1; i < len(cfgs); i++ {
		m, err := newWith(cfgs[i], c.gen, c.core, c.pmodel)
		if err != nil {
			return nil, fmt.Errorf("sim: gang config %d: %w", i, err)
		}
		c.members = append(c.members, m)
	}
	g := &Gang{
		classes: []*gclass{c},
		results: make([]*Result, len(cfgs)),
		index:   make(map[*Sim]int, len(cfgs)),
		live:    1,
	}
	for i, m := range c.members {
		g.index[m] = i
	}
	g.stats.Members = len(cfgs)
	g.stats.Classes = 1
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
// they need no lock-step; bursting keeps a class's working set —
// pipeline, caches, workload tables, thermal state — hot instead of
// evicting it on every round-robin turn.
const classBurst = 128

// Step advances every unfinished class by one burst of class-steps; a
// class-step is one exact cycle. Classes forked during this call
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
				// the shared core, the cycle count is lock-stepped and
				// GangCompatible keeps the budgets uniform.
				c.done = true
				g.live--
				for _, m := range c.members {
					g.results[g.index[m]] = m.Finish()
				}
			}
		}
	}
	g.stats.Classes = g.live
	return g.live > 0
}

// stepClass runs one class-step: the shared front half once, the member
// fan-out and the divergence check. Allocation-free except when a fork
// fires.
func (g *Gang) stepClass(c *gclass) {
	lead := c.members[0]
	stalled := lead.stallLeft > 0
	if stalled {
		lead.act.Reset() // the clock runs but the shared pipeline is idle
	} else {
		c.core.Step(&lead.act)
	}
	c.pmodel.BlockPower(&lead.act, lead.powerVec)
	chip := c.pmodel.ChipPower(&lead.act, lead.powerVec)
	// Fan out with the leader LAST: stepMember scales its powerVec in
	// place (frequency factor, leakage), and the leader's powerVec IS the
	// shared raw vector — stepping it first would hand every later member
	// a base already scaled by the leader's factors.
	for _, m := range c.members[1:] {
		m.stepMember(&lead.act, lead.powerVec, chip, stalled)
	}
	lead.stepMember(&lead.act, lead.powerVec, chip, stalled)
	g.stats.MemberCycles += uint64(len(c.members))
	g.stats.ClassCycles++

	if len(c.members) > 1 && c.diverged() {
		g.fork(c)
	}
}

// fork splits c into one class per distinct actuator signature. The
// partition containing the old leader keeps the shared objects; every
// other partition deep-clones the workload generator, core and power
// model and promotes its first member to leader. Each partition's
// actuation is then re-asserted on its core: the setters are idempotent
// plain writes, so re-asserting the signature the last DTM sample chose
// reproduces exactly the state a solo run's core would hold. Forks
// allocate; they fire only on actuation divergence, which is rare at the
// cycle scale.
func (g *Gang) fork(c *gclass) {
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
		nc := &gclass{members: p, gen: gen2, core: core2, pmodel: pm2}
		reassert(core2, p[0])
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
