// Package bpred implements the branch prediction hierarchy of the simulated
// Alpha-21264-like core (Table 2): a hybrid predictor combining a 4K-entry
// bimodal predictor and a 4K-entry/12-bit-history GAg two-level predictor
// under a 4K-entry bimodal-style chooser, a 1K-entry 2-way branch target
// buffer, and a 32-entry return-address stack.
//
// Following Section 5.1, the predictor is updated speculatively at lookup
// time and repaired after a misprediction: global history shifts in the
// *predicted* outcome at lookup, and Recover restores it (and the RAS top)
// from the snapshot taken at prediction.
package bpred

import (
	"fmt"

	"repro/internal/isa"
)

// Config sizes the predictor. All table sizes must be powers of two.
type Config struct {
	BimodEntries   int // bimodal PHT entries
	GlobalEntries  int // GAg PHT entries
	HistoryBits    int // GAg global history length
	ChooserEntries int // chooser PHT entries
	BTBSets        int
	BTBAssoc       int
	RASEntries     int
}

// DefaultConfig returns the paper's Table 2 configuration.
func DefaultConfig() Config {
	return Config{
		BimodEntries:   4096,
		GlobalEntries:  4096,
		HistoryBits:    12,
		ChooserEntries: 4096,
		BTBSets:        512, // 1K entries, 2-way
		BTBAssoc:       2,
		RASEntries:     32,
	}
}

// counter is a 2-bit saturating counter.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64
}

// Prediction carries the outcome of a lookup plus the snapshot needed to
// repair speculative state after a misprediction.
type Prediction struct {
	// Taken is the predicted direction (always true for unconditional
	// control transfers).
	Taken bool
	// Target is the predicted target PC; 0 when the BTB misses for a
	// taken prediction (forcing a fetch redirect at resolve).
	Target uint64
	// BTBHit reports whether the target came from the BTB (or RAS).
	BTBHit bool
	// UsedGlobal reports whether the chooser selected the GAg component.
	UsedGlobal bool

	// Snapshot for Recover.
	histBefore uint64
	rasTopIdx  int
	rasTopVal  uint64
}

// Predictor is the full hybrid prediction unit.
type Predictor struct {
	cfg     Config
	bimod   []counter
	global  []counter
	chooser []counter
	hist    uint64
	histMax uint64
	btb     []btbEntry
	ras     []uint64
	rasTop  int
	clock   uint64
}

func pow2(name string, v int) {
	if v <= 0 || v&(v-1) != 0 {
		panic(fmt.Sprintf("bpred: %s = %d, want a power of two", name, v))
	}
}

// New builds a predictor; all counters start weakly not-taken (bimod) and
// the chooser starts weakly preferring the bimodal component, matching
// SimpleScalar's initialization.
func New(cfg Config) *Predictor {
	pow2("BimodEntries", cfg.BimodEntries)
	pow2("GlobalEntries", cfg.GlobalEntries)
	pow2("ChooserEntries", cfg.ChooserEntries)
	pow2("BTBSets", cfg.BTBSets)
	if cfg.BTBAssoc <= 0 || cfg.RASEntries <= 0 || cfg.HistoryBits <= 0 || cfg.HistoryBits > 30 {
		panic(fmt.Sprintf("bpred: invalid config %+v", cfg))
	}
	p := &Predictor{
		cfg:     cfg,
		bimod:   make([]counter, cfg.BimodEntries),
		global:  make([]counter, cfg.GlobalEntries),
		chooser: make([]counter, cfg.ChooserEntries),
		histMax: uint64(1)<<cfg.HistoryBits - 1,
		btb:     make([]btbEntry, cfg.BTBSets*cfg.BTBAssoc),
		ras:     make([]uint64, cfg.RASEntries),
	}
	for i := range p.bimod {
		p.bimod[i] = 1
	}
	for i := range p.global {
		p.global[i] = 1
	}
	for i := range p.chooser {
		p.chooser[i] = 1 // < 2 selects bimodal
	}
	return p
}

func (p *Predictor) bimodIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.BimodEntries-1))
}

func (p *Predictor) globalIdx() int {
	return int(p.hist & uint64(p.cfg.GlobalEntries-1))
}

func (p *Predictor) chooserIdx(pc uint64) int {
	return int((pc >> 2) & uint64(p.cfg.ChooserEntries-1))
}

func (p *Predictor) btbSet(pc uint64) []btbEntry {
	s := int((pc >> 2) & uint64(p.cfg.BTBSets-1))
	return p.btb[s*p.cfg.BTBAssoc : (s+1)*p.cfg.BTBAssoc]
}

func (p *Predictor) btbLookup(pc uint64) (uint64, bool) {
	s := p.btbSet(pc)
	for i := range s {
		if s[i].valid && s[i].tag == pc {
			s[i].lru = p.clock
			return s[i].target, true
		}
	}
	return 0, false
}

func (p *Predictor) btbInsert(pc, target uint64) {
	s := p.btbSet(pc)
	victim := 0
	for i := range s {
		if s[i].valid && s[i].tag == pc {
			victim = i
			break
		}
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	s[victim] = btbEntry{valid: true, tag: pc, target: target, lru: p.clock}
}

// Predict looks up the direction and target for a control transfer at pc
// and speculatively updates the global history and return-address stack.
// The returned Prediction must be passed back to Update (on resolve) and,
// on a misprediction, to Recover.
func (p *Predictor) Predict(pc uint64, class isa.OpClass) Prediction {
	p.clock++
	pr := Prediction{
		histBefore: p.hist,
		rasTopIdx:  p.rasTop,
		rasTopVal:  p.ras[p.rasTop%len(p.ras)],
	}
	switch class {
	case isa.OpReturn:
		pr.Taken = true
		if p.rasTop > 0 {
			p.rasTop--
			pr.Target = p.ras[p.rasTop%len(p.ras)]
			pr.BTBHit = true
		}
		return pr
	case isa.OpCall:
		pr.Taken = true
		p.ras[p.rasTop%len(p.ras)] = pc + 4
		p.rasTop++
		pr.Target, pr.BTBHit = p.btbLookup(pc)
		return pr
	case isa.OpJump:
		pr.Taken = true
		pr.Target, pr.BTBHit = p.btbLookup(pc)
		return pr
	case isa.OpBranch:
		bi := p.bimod[p.bimodIdx(pc)]
		gi := p.global[p.globalIdx()]
		ch := p.chooser[p.chooserIdx(pc)]
		pr.UsedGlobal = ch.taken()
		if pr.UsedGlobal {
			pr.Taken = gi.taken()
		} else {
			pr.Taken = bi.taken()
		}
		// Speculative history update with the predicted direction.
		p.hist = (p.hist << 1) & p.histMax
		if pr.Taken {
			p.hist |= 1
		}
		if pr.Taken {
			pr.Target, pr.BTBHit = p.btbLookup(pc)
		}
		return pr
	default:
		panic(fmt.Sprintf("bpred: Predict on non-control class %v", class))
	}
}

// Update trains the predictor with the resolved outcome of the branch that
// produced pr. It must be called exactly once per Predict, in program
// order, at resolve/commit time.
func (p *Predictor) Update(pc uint64, class isa.OpClass, taken bool, target uint64, pr Prediction) {
	p.clock++
	if class == isa.OpBranch {
		// Components train on the outcome; the chooser trains toward
		// whichever component was right (when they disagree).
		biIdx := p.bimodIdx(pc)
		// Global index must use the history *at prediction time*.
		giIdx := int(pr.histBefore & uint64(p.cfg.GlobalEntries-1))
		biRight := p.bimod[biIdx].taken() == taken
		giRight := p.global[giIdx].taken() == taken
		p.bimod[biIdx] = p.bimod[biIdx].update(taken)
		p.global[giIdx] = p.global[giIdx].update(taken)
		if biRight != giRight {
			ci := p.chooserIdx(pc)
			p.chooser[ci] = p.chooser[ci].update(giRight)
		}
	}
	if taken && class != isa.OpReturn {
		p.btbInsert(pc, target)
	}
}

// Recover repairs the speculative global history and return-address stack
// after the branch that produced pr turns out mispredicted: history is
// restored to its pre-prediction value with the *actual* outcome shifted
// in, and the RAS top is restored from the snapshot.
func (p *Predictor) Recover(class isa.OpClass, taken bool, pr Prediction) {
	if class == isa.OpBranch {
		p.hist = (pr.histBefore << 1) & p.histMax
		if taken {
			p.hist |= 1
		}
	} else {
		p.hist = pr.histBefore
	}
	p.rasTop = pr.rasTopIdx
	p.ras[p.rasTop%len(p.ras)] = pr.rasTopVal
}

// Clone returns an independent deep copy of the predictor: all tables,
// the global history and the RAS. Gang execution forks a
// diverged simulation by cloning the shared core; predictions in the clone
// must match what the original would have produced bit for bit.
func (p *Predictor) Clone() *Predictor {
	q := *p
	q.bimod = append(p.bimod[:0:0], p.bimod...)
	q.global = append(p.global[:0:0], p.global...)
	q.chooser = append(p.chooser[:0:0], p.chooser...)
	q.btb = append(p.btb[:0:0], p.btb...)
	q.ras = append(p.ras[:0:0], p.ras...)
	return &q
}
