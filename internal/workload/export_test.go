package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/isa"
)

// Hooks for class_test.go, an external test package: it needs the bench
// profiles, and package bench imports workload (through sim).

// sampleClassRef is the per-draw class sampler the per-phase class tables
// replaced, kept verbatim as the reference: it rebuilds the weight list
// and re-sums it on every draw.
func sampleClassRef(rnd *rng, m Mix, allowCtrl bool) isa.OpClass {
	type wc struct {
		w float64
		c isa.OpClass
	}
	ws := []wc{
		{m.IntALU, isa.OpIntALU}, {m.IntMult, isa.OpIntMult}, {m.IntDiv, isa.OpIntDiv},
		{m.FPALU, isa.OpFPALU}, {m.FPMult, isa.OpFPMult}, {m.FPDiv, isa.OpFPDiv},
		{m.Load, isa.OpLoad}, {m.Store, isa.OpStore},
	}
	if allowCtrl {
		ws = append(ws, wc{m.Branch, isa.OpBranch}, wc{m.Call, isa.OpCall})
	}
	var total float64
	for _, w := range ws {
		total += w.w
	}
	x := rnd.float() * total
	for _, w := range ws {
		if x < w.w {
			return w.c
		}
		x -= w.w
	}
	return isa.OpIntALU
}

// WrongPathRef returns the pre-table WrongPath (a whole-Phase copy and the
// per-draw sampler) running on its own copy of g's wrong-path RNG. It
// follows g's current phase, so interleaving g.Next calls moves both.
func WrongPathRef(g *Generator) func(pc uint64) isa.MicroOp {
	rnd := *g.wpRnd
	return func(pc uint64) isa.MicroOp {
		ph := g.phases[g.phaseIdx].spec
		cls := sampleClassRef(&rnd, ph.Mix, false)
		op := isa.MicroOp{
			Seq:   ^uint64(0),
			PC:    pc,
			Class: cls,
			Src1:  int16(rnd.intn(32)),
			Src2:  isa.RegNone,
			Dest:  isa.RegNone,
		}
		if cls.IsMem() {
			op.Addr = g.phases[g.phaseIdx].dataBase + (rnd.next()%ph.WorkingSet)&^7
			if cls == isa.OpStore {
				op.Class = isa.OpLoad
			}
			op.Dest = int16(rnd.intn(32))
		} else if cls.IsFP() {
			op.Src1 = int16(32 + rnd.intn(32))
			op.Dest = int16(32 + rnd.intn(32))
		} else {
			op.Dest = int16(rnd.intn(32))
		}
		return op
	}
}

// ClassDrawMismatch draws n classes from the mix with the class table and
// with sampleClassRef, each on its own RNG seeded with seed, and returns
// the index of the first draw where the class or the RNG state after the
// draw differs, or -1.
func ClassDrawMismatch(m Mix, seed uint64, n int, allowCtrl bool) int {
	t := newClassTable(m)
	a, b := newRNG(seed), newRNG(seed)
	for i := 0; i < n; i++ {
		if t.sample(a, allowCtrl) != sampleClassRef(b, m, allowCtrl) || *a != *b {
			return i
		}
	}
	return -1
}

// StaticDigest returns the SHA-256 of every static slot of every phase's
// loop and function bodies: the code NewGenerator builds.
func StaticDigest(g *Generator) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, pp := range g.phases {
		for _, bodies := range [][]body{pp.loops, pp.funcs} {
			for _, b := range bodies {
				put(b.base)
				put(uint64(len(b.slots)))
				for _, s := range b.slots {
					put(uint64(s.class))
					put(uint64(uint16(s.dest)))
					put(uint64(uint16(s.src1)))
					put(uint64(uint16(s.src2)))
					if s.stream {
						put(1)
					} else {
						put(0)
					}
					put(s.stride)
					put(uint64(s.patt))
					put(uint64(s.period))
					put(math.Float64bits(s.bias))
					put(uint64(s.skip))
					put(uint64(s.callee))
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
