package sim

// Gang execution steps N simulations that share one (workload, seed) in
// lock-step, evaluating the expensive front half of every cycle — the
// out-of-order pipeline model and the raw per-block power evaluation —
// once per OPERATING-POINT EQUIVALENCE CLASS instead of once per member.
// A DTM study sweeps controllers against a fixed workload: until a
// policy's actuation diverges from its classmates', every member observes
// the exact same instruction and activity stream, so re-simulating the
// pipeline per member is pure redundancy. Each class shares one core
// (workload generator, pipeline and power model); the class leader
// (members[0]) drives it, and the class keeps the history every member
// shares (see history). Members are event-driven where they can be: a
// plain member (see Sim.plain) reads the class's window for its schedule
// and works only at that window's ends — the flush and, on a controller
// sample, sampleDTM — while every other member fans the power vector and
// chip power into its private thermal/DTM state each cycle via
// Sim.stepMember. When members' actuation records diverge (duty, frequency,
// fetch/speculation limits, or a trigger stall), the class forks: the
// divergent partitions get deep clones of the shared core and continue
// independently. A fork is final:
// classes are never merged back. The 40 gangs of Tables 11 and 13 at
// 2 000 000 instructions and of the four default sweep grids forked 109
// times, and an exact re-convergence check of the shared deep state
// (caches, predictor, workload position) never passed.
//
// The fork earns its code. At 2 000 000 instructions 10 of Table 11's 18
// gangs fork (41 forks), the first at class-cycle 256 000 (gcc) to
// 5 736 000 (art). Re-running each departing partition from cycle 0, as
// a multicore group does, would add 79.95 M class-cycles to the 127.6 M
// the gangs step (+62.7%).
//
// Gang results are byte-identical to solo runs of the same configs: a solo
// run is the one-member class, the shared/member split reorders no
// floating-point arithmetic (see the seam comment in Sim.Step), and forks
// clone state bit-exactly. Sharing history and windows is exact because
// classes never merge: members of one class have received the same
// actuation, power and chip power since cycle 0, and equal schedules give
// identical windows, so identical sums.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

// gclass is one operating-point equivalence class: the members in
// lock-step, all sharing the leader's core. members[0] is the leader; its
// core, act and powerVec serve the whole class. A solo run is a class of
// one.
type gclass struct {
	members []*Sim
	// cycled lists the members that step every cycle (stepMember), the
	// leader last; wins holds one window per schedule of the plain members.
	cycled []*Sim
	wins   []*sharedWindow
	hist   history
	done   bool
}

// history is what every member of a class shares, updated once per
// class-cycle: the cycle count, the stall countdown and its total, wall
// time (the class's frequency is uniform), the fetch duty summed per
// cycle, and the sum and maximum of the raw chip power. Finish writes it
// into each member's Result; a member whose chip power is its own
// (Sim.ownChip) keeps those two itself.
type history struct {
	cycle        uint64
	stall        uint64 // stall cycles still owed
	stallCycles  uint64
	wallSeconds  float64
	dutySum      float64
	chipPowerSum float64
	maxChipPower float64
}

// sharedWindow is the window of one schedule that the class's plain
// members on that schedule read: the class adds the raw power vector to
// it once per cycle for all of them.
type sharedWindow struct {
	window
	members []*Sim
}

// adopt makes members the class's members and sorts them by how they
// step. A plain member reads the class's window for its schedule, copied
// on first use from the window it read before, so a fork hands each
// partition its open accumulation. Every other member steps every cycle,
// the leader last: stepMember scales its powerVec in place (frequency
// factor, leakage), and the leader's powerVec IS the shared raw vector —
// stepping it first would hand every later member a base already scaled
// by the leader's factors.
func (c *gclass) adopt(members []*Sim) {
	c.members = members
	c.cycled, c.wins = nil, nil
	for i := range members {
		m := members[(i+1)%len(members)] // the leader last
		m.cls = c
		if !m.plain {
			c.cycled = append(c.cycled, m)
			continue
		}
		var sw *sharedWindow
		for _, w := range c.wins {
			if w.equal(&m.acct.win.schedule) {
				sw = w
				break
			}
		}
		if sw == nil {
			sw = &sharedWindow{window: *m.acct.win.clone()}
			c.wins = append(c.wins, sw)
		}
		sw.members = append(sw.members, m)
		m.acct.win = &sw.window
	}
}

// step advances the class by one exact cycle: the shared front half and
// history once, each schedule window's accumulation and its plain
// members' work at its end, and the members that step every cycle.
// Returns whether any member's controllers sampled: actuation changes
// only then, so only then can members diverge. Allocation-free.
func (c *gclass) step() bool {
	lead := c.members[0]
	h := &c.hist
	stalled := h.stall > 0
	if stalled {
		lead.act.Reset() // the clock runs but the shared pipeline is idle
	} else {
		lead.core.Step(&lead.act)
	}
	// A lone member that scales or adds leakage sums its own chip power,
	// so the raw chip power is only needed when someone reads it as is.
	base := lead.powerVec
	lead.pmodel.BlockPower(&lead.act, base)
	var chip float64
	if len(c.members) > 1 || !lead.hasLeak && lead.powerFactor() == 1 {
		chip = lead.pmodel.ChipPower(&lead.act, base)
	}
	h.cycle++
	cycle := h.cycle
	if stalled {
		h.stall--
		h.stallCycles++
	}
	h.chipPowerSum += chip
	if chip > h.maxChipPower {
		h.maxChipPower = chip
	}
	h.wallSeconds += lead.wallDt()

	// Windows first: a leader that steps every cycle adjusts base in
	// place. A plain member's frequency is 1, so its flush takes invF 1.
	sampled := false
	for _, w := range c.wins {
		if !w.add(base) {
			continue
		}
		k, mean := w.close()
		for _, m := range w.members {
			m.acct.flush(mean, k, 1)
			if !stalled && m.sampleDTM(cycle) {
				sampled = true
			}
		}
		w.openAfter(cycle)
	}
	for _, m := range c.cycled {
		if m.stepMember(&lead.act, base, chip, stalled, cycle) {
			sampled = true
		}
	}
	return sampled
}

// endCycle closes the class's cycle once its actuation is settled, after
// any fork: a stall its controllers commanded this cycle moves from the
// members' records into the class countdown, and the cycle's fetch duty
// joins the duty sum.
func (c *gclass) endCycle() {
	lead := c.members[0]
	if st := lead.cmd.stall; st > 0 {
		c.hist.stall = st
		for _, m := range c.members {
			m.cmd.stall = 0
		}
	}
	c.hist.dutySum += lead.cmd.FetchDuty
}

// closeWindows closes the schedule windows' partial windows into every
// member reading them, so Finish accounts for every simulated cycle. It
// is idempotent: a closed window has nothing elapsed.
func (c *gclass) closeWindows() {
	for _, w := range c.wins {
		if k, mean := w.close(); k > 0 {
			for _, m := range w.members {
				m.acct.flush(mean, k, 1)
			}
		}
	}
}

// diverged reports whether any member's actuation differs from the
// leader's. It runs only on cycles where some member sampled, the only
// cycles on which a member's actuation changes.
func (c *gclass) diverged() bool {
	lead := c.members[0]
	for _, m := range c.members[1:] {
		if !m.cmd.same(&lead.cmd) {
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
// reason it may not. Members must agree on what the class-shared front
// half consumes: workload, pipeline, gating and the instruction and cycle
// budgets. Everything else is per member, because each member owns its
// thermal accounting (so its own thermal stride, Euler or fast), proxy
// rings, chip/sink node and telemetry sinks: policy, scaling, hierarchy,
// leakage, sensor model, thresholds, monitored blocks, initial
// temperatures, tangential flow, proxies, the coupled sink, traces and
// metrics.
func GangCompatible(lead, cfg *Config) error {
	switch {
	case cfg.Gating != lead.Gating || cfg.MaxInsts != lead.MaxInsts || cfg.MaxCycles != lead.MaxCycles:
		return errors.New("execution parameters (Gating/MaxInsts/MaxCycles) differ from the lead's")
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

	lead, err := newWith(cfgs[0], nil)
	if err != nil {
		return nil, fmt.Errorf("sim: gang config 0: %w", err)
	}
	members := []*Sim{lead}
	for i := 1; i < len(cfgs); i++ {
		m, err := newWith(cfgs[i], &lead.unit)
		if err != nil {
			return nil, fmt.Errorf("sim: gang config %d: %w", i, err)
		}
		members = append(members, m)
	}
	c := new(gclass)
	c.adopt(members)
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

// stepClass runs one class-step: the class's cycle (gclass.step), the
// divergence check on cycles where some member sampled, and the cycle's
// close in every class the step leaves. Allocation-free except when a
// fork fires.
func (g *Gang) stepClass(c *gclass) {
	g.stats.MemberCycles += uint64(len(c.members))
	g.stats.ClassCycles++
	n := len(g.classes)
	if c.step() && len(c.members) > 1 && c.diverged() {
		g.fork(c)
	}
	c.endCycle()
	for _, f := range g.classes[n:] {
		f.endCycle()
	}
}

// fork splits c into one class per distinct actuation. The partition
// containing the old leader keeps the shared core; every other partition
// deep-clones it and promotes its first member to leader. Each new class
// starts from a copy of c's history and of its open windows. Each
// partition then applies its leader's actuation to its core: the shared
// core last saw the actuation of whichever member sampled last, and
// re-applying the record the last DTM sample chose reproduces exactly the
// state a solo run's core would hold. Forks allocate; they fire only on
// actuation divergence, which is rare at the cycle scale.
func (g *Gang) fork(c *gclass) {
	var parts [][]*Sim
	for _, m := range c.members {
		idx := 0
		for idx < len(parts) && !m.cmd.same(&parts[idx][0].cmd) {
			idx++
		}
		if idx == len(parts) {
			parts = append(parts, nil)
		}
		parts[idx] = append(parts[idx], m)
	}
	// parts[0] holds the old leader (first-seen order) and keeps the
	// shared core in place.
	for _, p := range parts[1:] {
		u := p[0].unit.clone()
		for _, m := range p {
			m.unit = u
		}
		f := &gclass{hist: c.hist}
		f.adopt(p)
		g.classes = append(g.classes, f)
		g.live++
		g.stats.Forks++
	}
	c.adopt(parts[0])
	for _, p := range parts {
		p[0].cmd.apply(p[0].core)
	}
}

// Stats returns the gang's sharing statistics so far.
func (g *Gang) Stats() GangStats { return g.stats }

// Run steps the gang to completion and returns per-member results in the
// order of the configs passed to NewGang. Context checks and scheduler
// yields are paced on class-cycles (see runLoop).
func (g *Gang) Run(ctx context.Context) ([]*Result, error) {
	if err := runLoop(ctx, g.stats.ClassCycles, g.runTo); err != nil {
		return nil, err
	}
	return g.results, nil
}

// runTo steps the gang until every member is done or the class-cycle
// count reaches limit.
func (g *Gang) runTo(limit uint64) (uint64, bool) {
	more := g.live > 0
	for more && g.stats.ClassCycles < limit {
		more = g.Step()
	}
	return g.stats.ClassCycles, more
}
