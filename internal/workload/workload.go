// Package workload generates the deterministic synthetic instruction
// streams that stand in for the paper's SPEC CPU2000 benchmarks.
//
// The paper's experiments consume each benchmark only through its dynamic
// behaviour: instruction mix, attainable ILP (dependence distances), branch
// predictability, memory locality, and program phases — these together
// determine per-structure utilization, hence per-structure power and
// temperature. A Profile parameterizes exactly those properties; a
// Generator expands it into a reproducible dynamic micro-op trace with a
// static code structure (loops, embedded forward branches, leaf function
// calls) so that the *real* branch predictor and caches, not probability
// knobs, produce the miss behaviour.
package workload

import (
	"fmt"

	"repro/internal/isa"
)

// Mix is the instruction-class composition of a phase. Weights are
// relative; they need not sum to one. Call weight implies a matching
// Return executed at the end of each called function.
type Mix struct {
	IntALU  float64
	IntMult float64
	IntDiv  float64
	FPALU   float64
	FPMult  float64
	FPDiv   float64
	Load    float64
	Store   float64
	Branch  float64
	Call    float64
}

// total returns the sum of weights.
func (m Mix) total() float64 {
	return m.IntALU + m.IntMult + m.IntDiv + m.FPALU + m.FPMult + m.FPDiv +
		m.Load + m.Store + m.Branch + m.Call
}

// Phase describes one homogeneous region of program behaviour.
type Phase struct {
	// Insts is the number of dynamic instructions spent in the phase per
	// visit; phases repeat round-robin.
	Insts uint64
	// Mix is the class composition.
	Mix Mix
	// DepMean is the mean register dependence distance in instructions;
	// small values serialize execution (low ILP), large values expose
	// parallelism.
	DepMean float64
	// LoopIters is the iteration count of each inner loop visit.
	LoopIters int
	// BodySize is the static instruction count of each loop body.
	BodySize int
	// NumLoops is the number of distinct static loops in the phase;
	// NumLoops*BodySize*4 bytes is the phase's code footprint.
	NumLoops int
	// BranchRandomFrac is the fraction of static conditional branches
	// with i.i.d. random outcomes (unpredictable); the rest follow
	// loop-style or short periodic patterns the predictor can learn.
	BranchRandomFrac float64
	// BranchBias is the taken probability of the random branches.
	BranchBias float64
	// WorkingSet is the data working-set size in bytes for non-streaming
	// references.
	WorkingSet uint64
	// StreamFrac is the fraction of static memory slots that stream
	// sequentially (high spatial locality); the rest index the working
	// set pseudo-randomly.
	StreamFrac float64
}

// Profile identifies a benchmark: a seed and its phases.
type Profile struct {
	Name   string
	Seed   uint64
	Phases []Phase
}

// Validate checks profile invariants.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("workload %s: no phases", p.Name)
	}
	for i, ph := range p.Phases {
		if ph.Insts == 0 {
			return fmt.Errorf("workload %s phase %d: zero length", p.Name, i)
		}
		if ph.Mix.total() <= 0 {
			return fmt.Errorf("workload %s phase %d: empty mix", p.Name, i)
		}
		if ph.BodySize < 4 {
			return fmt.Errorf("workload %s phase %d: body size %d < 4", p.Name, i, ph.BodySize)
		}
		if ph.NumLoops < 1 || ph.LoopIters < 1 {
			return fmt.Errorf("workload %s phase %d: loops %d iters %d", p.Name, i, ph.NumLoops, ph.LoopIters)
		}
		if ph.DepMean < 1 {
			return fmt.Errorf("workload %s phase %d: DepMean %g < 1", p.Name, i, ph.DepMean)
		}
		if ph.BranchRandomFrac < 0 || ph.BranchRandomFrac > 1 ||
			ph.BranchBias < 0 || ph.BranchBias > 1 ||
			ph.StreamFrac < 0 || ph.StreamFrac > 1 {
			return fmt.Errorf("workload %s phase %d: fraction out of [0,1]", p.Name, i)
		}
		if ph.WorkingSet == 0 {
			return fmt.Errorf("workload %s phase %d: zero working set", p.Name, i)
		}
	}
	return nil
}

// branch outcome patterns for static branches.
const (
	patLoop     = iota // taken except on loop exit (handled separately)
	patPeriodic        // not-taken once every period executions
	patRandom          // i.i.d. with bias
)

// slot is one static instruction in a loop or function body.
type slot struct {
	class  isa.OpClass
	dest   int16
	src1   int16
	src2   int16
	stream bool   // memory slots: streaming vs random
	stride uint64 // streaming stride in bytes
	patt   int    // branch slots: outcome pattern
	period int    // patPeriodic period
	bias   float64
	skip   int // forward-branch skip distance in slots
	callee int // call slots: function index
	// count is the dynamic execution count of this static slot; it
	// drives periodic branch patterns and streaming address progressions.
	count uint64
}

// body is a static code region: a loop body or function body.
type body struct {
	base  uint64 // PC of first slot
	slots []slot
}

// mixClasses lists the op classes in sampling order; a classTable's
// weights follow it. The last two (control) are drawn only into loop
// bodies.
var mixClasses = [...]isa.OpClass{
	isa.OpIntALU, isa.OpIntMult, isa.OpIntDiv,
	isa.OpFPALU, isa.OpFPMult, isa.OpFPDiv,
	isa.OpLoad, isa.OpStore,
	isa.OpBranch, isa.OpCall,
}

// numDataClasses is how many leading mixClasses are non-control.
const numDataClasses = 8

// classTable is one phase's class-sampling table, built once from its
// Mix. The totals are summed left to right in mixClasses order, as a
// per-draw sum would be, so every draw picks the same class.
type classTable struct {
	w         [len(mixClasses)]float64
	dataTotal float64 // sum of the non-control weights
	allTotal  float64 // dataTotal plus the control weights
}

func newClassTable(m Mix) classTable {
	t := classTable{w: [...]float64{
		m.IntALU, m.IntMult, m.IntDiv,
		m.FPALU, m.FPMult, m.FPDiv,
		m.Load, m.Store,
		m.Branch, m.Call,
	}}
	for i, w := range t.w {
		if i < numDataClasses {
			t.dataTotal += w
		}
		t.allTotal += w
	}
	return t
}

// sample draws an op class. Function bodies and wrong-path ops exclude
// control (calls/branches), so functions remain leaves.
func (t *classTable) sample(rnd *rng, allowCtrl bool) isa.OpClass {
	n, total := numDataClasses, t.dataTotal
	if allowCtrl {
		n, total = len(t.w), t.allTotal
	}
	x := rnd.float() * total
	for i, w := range t.w[:n] {
		if x < w {
			return mixClasses[i]
		}
		x -= w
	}
	return isa.OpIntALU
}

// phaseProgram is the compiled static structure of one phase.
type phaseProgram struct {
	spec    Phase
	classes classTable
	loops   []body
	funcs   []body
	// dataBase is the start of this phase's data region.
	dataBase uint64
}

// Source supplies instructions to the pipeline. The seeded Generator is
// the one production source, and it already gives every simulation of a
// benchmark the same instructions, the role SimpleScalar's EIO traces play
// in the paper (Section 5.4). The interface lets a caller wrap the
// generator, for example to time it apart from the pipeline.
type Source interface {
	// Next returns the next correct-path micro-op.
	Next() isa.MicroOp
	// PeekPC returns the next correct-path fetch address.
	PeekPC() uint64
	// WrongPath synthesizes a wrong-path micro-op at pc.
	WrongPath(pc uint64) isa.MicroOp
}

var _ Source = (*Generator)(nil)

// Generator expands a Profile into a dynamic micro-op stream.
type Generator struct {
	phases []phaseProgram
	rnd    *rng // dynamic randomness (branch outcomes, data addresses)
	wpRnd  *rng // wrong-path synthesis

	// Dynamic position.
	phaseIdx   int
	phaseInsts uint64 // instructions emitted in current phase visit
	loopIdx    int
	iter       int
	slotIdx    int
	skip       int
	inFunc     bool
	funcIdx    int
	funcSlot   int
	retPC      uint64

	seq uint64

	// One-op lookahead so the pipeline can probe the next fetch PC
	// (PeekPC) before consuming the op.
	pending    isa.MicroOp
	hasPending bool
}

// Code layout constants.
const (
	codeBase   = 0x0010_0000
	funcRegion = 0x0400_0000 // functions live far from loop bodies
	dataBase   = 0x4000_0000
	stackBase  = 0x7fff_0000
	phaseSpan  = 0x0040_0000 // code span reserved per phase
)

// numFuncs is the number of leaf functions generated per phase.
const numFuncs = 8

// funcBodySize is the static size of each leaf function, including the
// final return.
const funcBodySize = 16

// NewGenerator compiles the profile's static structure and returns a
// generator positioned at the first instruction. It returns an error if the
// profile is invalid.
func NewGenerator(prof Profile) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		rnd:   newRNG(prof.Seed),
		wpRnd: newRNG(prof.Seed ^ 0xdeadbeefcafef00d),
	}
	structRnd := newRNG(prof.Seed ^ 0xabcdef0123456789)
	for pi, ph := range prof.Phases {
		pp := phaseProgram{spec: ph, classes: newClassTable(ph.Mix), dataBase: dataBase + uint64(pi)*0x0800_0000}
		base := uint64(codeBase + uint64(pi)*phaseSpan)
		for li := 0; li < ph.NumLoops; li++ {
			b := buildBody(structRnd, &pp, base, ph.BodySize, true)
			base += uint64(ph.BodySize) * 4
			pp.loops = append(pp.loops, b)
		}
		fbase := uint64(funcRegion + uint64(pi)*phaseSpan)
		for fi := 0; fi < numFuncs; fi++ {
			b := buildBody(structRnd, &pp, fbase, funcBodySize, false)
			fbase += uint64(funcBodySize) * 4
			pp.funcs = append(pp.funcs, b)
		}
		g.phases = append(g.phases, pp)
	}
	return g, nil
}

// buildBody creates one static body. Loop bodies end in a backward
// conditional branch; function bodies end in a return and contain no calls
// or control transfers (leaf functions keep the RAS depth bounded at one).
func buildBody(rnd *rng, pp *phaseProgram, base uint64, size int, isLoop bool) body {
	ph := &pp.spec
	b := body{base: base, slots: make([]slot, size)}
	// Running ring of recent destination registers for dependence wiring.
	intRing := make([]int16, 0, 64)
	fpRing := make([]int16, 0, 64)
	pickSrc := func(fp bool) int16 {
		ring := intRing
		if fp {
			ring = fpRing
		}
		if len(ring) == 0 {
			if fp {
				return 32
			}
			return 0
		}
		d := rnd.geometric(ph.DepMean)
		if d > len(ring) {
			d = len(ring)
		}
		return ring[len(ring)-d]
	}
	nextInt, nextFP := int16(0), int16(32)
	for i := 0; i < size; i++ {
		s := &b.slots[i]
		last := i == size-1
		switch {
		case last && isLoop:
			s.class = isa.OpBranch
			s.patt = patLoop
			s.src1 = pickSrc(false)
			s.src2 = isa.RegNone
			s.dest = isa.RegNone
			b.slots[i] = *s
			continue
		case last && !isLoop:
			s.class = isa.OpReturn
			s.src1, s.src2, s.dest = isa.RegNone, isa.RegNone, isa.RegNone
			continue
		}
		cls := pp.classes.sample(rnd, isLoop)
		s.class = cls
		switch cls {
		case isa.OpBranch:
			s.src1 = pickSrc(false)
			s.src2, s.dest = isa.RegNone, isa.RegNone
			if rnd.bernoulli(ph.BranchRandomFrac) {
				s.patt = patRandom
				s.bias = ph.BranchBias
			} else {
				s.patt = patPeriodic
				s.period = 2 + rnd.intn(7)
			}
			// Forward skip of 1..4 slots, bounded by body end.
			s.skip = 1 + rnd.intn(4)
			if i+1+s.skip >= size {
				s.skip = size - 2 - i
				if s.skip < 1 {
					// No room: degrade to an ALU op.
					s.class = isa.OpIntALU
					s.dest = nextInt
					nextInt = (nextInt + 1) % 32
					intRing = append(intRing, s.dest)
				}
			}
		case isa.OpCall:
			s.src1, s.src2, s.dest = isa.RegNone, isa.RegNone, isa.RegNone
			s.callee = rnd.intn(numFuncs)
		case isa.OpLoad:
			s.src1 = pickSrc(false)
			s.src2 = isa.RegNone
			s.dest = nextInt
			nextInt = (nextInt + 1) % 32
			intRing = append(intRing, s.dest)
			s.stream = rnd.bernoulli(ph.StreamFrac)
			s.stride = 8
		case isa.OpStore:
			s.src1 = pickSrc(false)
			s.src2 = pickSrc(false)
			s.dest = isa.RegNone
			s.stream = rnd.bernoulli(ph.StreamFrac)
			s.stride = 8
		case isa.OpFPALU, isa.OpFPMult, isa.OpFPDiv:
			s.src1 = pickSrc(true)
			s.src2 = pickSrc(true)
			s.dest = nextFP
			nextFP = 32 + (nextFP-32+1)%32
			fpRing = append(fpRing, s.dest)
		default: // integer ALU/mult/div
			s.src1 = pickSrc(false)
			s.src2 = pickSrc(false)
			s.dest = nextInt
			nextInt = (nextInt + 1) % 32
			intRing = append(intRing, s.dest)
		}
	}
	return b
}

// Next returns the next correct-path micro-op. The stream is unbounded;
// the caller decides when to stop.
func (g *Generator) Next() isa.MicroOp {
	if !g.hasPending {
		g.pending = g.nextInternal()
		g.hasPending = true
	}
	op := g.pending
	g.pending = g.nextInternal()
	return op
}

// PeekPC returns the PC of the next correct-path micro-op without
// consuming it — the pipeline's fetch probe address.
func (g *Generator) PeekPC() uint64 {
	if !g.hasPending {
		g.pending = g.nextInternal()
		g.hasPending = true
	}
	return g.pending.PC
}

func (g *Generator) nextInternal() isa.MicroOp {
	pp := &g.phases[g.phaseIdx]
	var op isa.MicroOp

	if g.inFunc {
		fb := &pp.funcs[g.funcIdx]
		s := &fb.slots[g.funcSlot]
		op = g.materialize(pp, fb, g.funcSlot, s)
		if s.class == isa.OpReturn {
			op.Taken = true
			op.Target = g.retPC
			g.inFunc = false
		} else {
			g.funcSlot++
		}
		g.account(&op)
		return op
	}

	lb := &pp.loops[g.loopIdx]
	// Skip slots jumped over by a taken forward branch.
	for g.skip > 0 {
		g.skip--
		g.slotIdx++
	}
	if g.slotIdx >= len(lb.slots) {
		// Shouldn't happen (last slot is the loop branch) but guard:
		g.slotIdx = len(lb.slots) - 1
	}
	s := &lb.slots[g.slotIdx]
	op = g.materialize(pp, lb, g.slotIdx, s)

	switch s.class {
	case isa.OpBranch:
		if s.patt == patLoop {
			lastIter := g.iter >= pp.spec.LoopIters-1
			op.Taken = !lastIter
			op.Target = lb.base // back edge
			if lastIter {
				g.iter = 0
				g.loopIdx = (g.loopIdx + 1) % len(pp.loops)
			} else {
				g.iter++
			}
			g.slotIdx = 0
		} else {
			taken := false
			switch s.patt {
			case patPeriodic:
				taken = s.count%uint64(s.period) != 0
			case patRandom:
				taken = g.rnd.bernoulli(s.bias)
			}
			op.Taken = taken
			op.Target = op.PC + 4 + uint64(s.skip)*4
			if taken {
				g.skip = s.skip
			}
			g.slotIdx++
		}
	case isa.OpCall:
		op.Taken = true
		op.Target = pp.funcs[s.callee].base
		g.inFunc = true
		g.funcIdx = s.callee
		g.funcSlot = 0
		g.retPC = op.PC + 4
		g.slotIdx++
	default:
		g.slotIdx++
	}
	g.account(&op)
	return op
}

// materialize fills in the dynamic fields of a slot execution.
func (g *Generator) materialize(pp *phaseProgram, b *body, idx int, s *slot) isa.MicroOp {
	pc := b.base + uint64(idx)*4
	n := s.count
	s.count = n + 1
	op := isa.MicroOp{
		Seq:   g.seq,
		PC:    pc,
		Class: s.class,
		Src1:  s.src1,
		Src2:  s.src2,
		Dest:  s.dest,
	}
	g.seq++
	if s.class.IsMem() {
		if s.stream {
			span := pp.spec.WorkingSet
			op.Addr = pp.dataBase + (uint64(idx)*4096+n*s.stride)%span
		} else {
			op.Addr = pp.dataBase + (g.rnd.next()%pp.spec.WorkingSet)&^7
		}
	}
	return op
}

// account advances phase bookkeeping after emitting an op.
func (g *Generator) account(op *isa.MicroOp) {
	g.phaseInsts++
	if g.phaseInsts >= g.phases[g.phaseIdx].spec.Insts && !g.inFunc {
		// Switch phases only at a function-return-free point.
		g.phaseInsts = 0
		g.phaseIdx = (g.phaseIdx + 1) % len(g.phases)
		g.loopIdx, g.iter, g.slotIdx, g.skip = 0, 0, 0, 0
	}
}

// Clone returns an independent deep copy of the generator: the same
// profile and static code structure, positioned at the same dynamic point
// with identical RNG state, so the clone emits exactly the op stream the
// original would have. Slot execution counts (which drive periodic branch
// patterns and streaming address progressions) are part of the dynamic
// state and are copied, which is why the static bodies must be deep-copied
// rather than shared.
func (g *Generator) Clone() *Generator {
	q := *g
	rnd, wpRnd := *g.rnd, *g.wpRnd
	q.rnd, q.wpRnd = &rnd, &wpRnd
	q.phases = append(g.phases[:0:0], g.phases...)
	for i := range q.phases {
		pp := &q.phases[i]
		pp.loops = append(pp.loops[:0:0], pp.loops...)
		for j := range pp.loops {
			pp.loops[j].slots = append(pp.loops[j].slots[:0:0], pp.loops[j].slots...)
		}
		pp.funcs = append(pp.funcs[:0:0], pp.funcs...)
		for j := range pp.funcs {
			pp.funcs[j].slots = append(pp.funcs[j].slots[:0:0], pp.funcs[j].slots...)
		}
	}
	return &q
}

// WrongPath synthesizes a wrong-path micro-op at the given PC: the ops a
// real pipeline would fetch and partially execute past a mispredicted
// branch. They carry the current phase's mix (so their cache/ALU pollution
// is representative) but are always non-control, and the generator's
// correct-path state is untouched.
func (g *Generator) WrongPath(pc uint64) isa.MicroOp {
	pp := &g.phases[g.phaseIdx]
	cls := pp.classes.sample(g.wpRnd, false)
	op := isa.MicroOp{
		Seq:   ^uint64(0), // never commits
		PC:    pc,
		Class: cls,
		Src1:  int16(g.wpRnd.intn(32)),
		Src2:  isa.RegNone,
		Dest:  isa.RegNone,
	}
	if cls.IsMem() {
		op.Addr = pp.dataBase + (g.wpRnd.next()%pp.spec.WorkingSet)&^7
		if cls == isa.OpStore {
			// Wrong-path stores never write the cache; model them
			// as loads for pollution purposes.
			op.Class = isa.OpLoad
		}
		op.Dest = int16(g.wpRnd.intn(32))
	} else if cls.IsFP() {
		op.Src1 = int16(32 + g.wpRnd.intn(32))
		op.Dest = int16(32 + g.wpRnd.intn(32))
	} else {
		op.Dest = int16(g.wpRnd.intn(32))
	}
	return op
}
