// Package pipeline implements the cycle-level out-of-order core of
// Section 5.1: SimpleScalar's sim-outorder pipeline extended with three
// extra rename/enqueue stages between decode and issue (an 8-stage front
// end, Alpha-21264-style), a register update unit (RUU), a load/store
// queue (LSQ), a pooled set of functional units, hybrid branch prediction
// with speculative-update repair, and a two-level cache hierarchy.
//
// The core is trace-driven with wrong-path execution: instruction fetch
// consumes the workload generator's correct-path stream, and after a
// mispredicted (or BTB-missing) control transfer it fetches synthesized
// wrong-path micro-ops that occupy real pipeline resources and pollute the
// caches until the branch resolves, at which point younger state is
// squashed and the predictor history repaired.
//
// Every cycle produces an Activity record — per-structure access counts —
// which the power model converts to per-block watts (the Wattch coupling
// of Section 5.1).
package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/workload"
)

// Config sizes the core (defaults per Table 2).
type Config struct {
	FetchWidth  int
	DecodeWidth int
	IssueWidth  int // total issue slots per cycle
	IntIssue    int // integer-side issue slots (4)
	FPIssue     int // floating-point-side issue slots (2)
	CommitWidth int
	RUUSize     int
	LSQSize     int
	IFQSize     int
	// FrontEndDepth is the number of cycles between fetch and earliest
	// dispatch: the 5-stage base plus the paper's 3 extra
	// rename/enqueue stages.
	FrontEndDepth int

	IntALUs    int
	IntMultDiv int
	FPALUs     int
	FPMultDiv  int
	MemPorts   int

	BPred bpred.Config
	L1I   cache.Config
	L1D   cache.Config
	L2    cache.Config

	// Idealization knobs (SimpleScalar-style bounding studies). Perfect
	// structures still charge their access energy — the study isolates
	// the *timing* effect.
	PerfectBPred  bool
	PerfectDCache bool
	PerfectICache bool
}

// DefaultConfig returns the Table 2 machine.
func DefaultConfig() Config {
	return Config{
		FetchWidth:    4,
		DecodeWidth:   4,
		IssueWidth:    6,
		IntIssue:      4,
		FPIssue:       2,
		CommitWidth:   6,
		RUUSize:       80,
		LSQSize:       40,
		IFQSize:       16,
		FrontEndDepth: 8,
		IntALUs:       4,
		IntMultDiv:    1,
		FPALUs:        2,
		FPMultDiv:     1,
		MemPorts:      2,
		BPred:         bpred.DefaultConfig(),
		L1I:           cache.DefaultL1I(),
		L1D:           cache.DefaultL1D(),
		L2:            cache.DefaultL2(),
	}
}

func (c Config) validate() error {
	switch {
	case c.FetchWidth <= 0, c.DecodeWidth <= 0, c.IssueWidth <= 0,
		c.CommitWidth <= 0, c.RUUSize <= 0, c.LSQSize <= 0, c.IFQSize <= 0:
		return fmt.Errorf("pipeline: non-positive width/size in %+v", c)
	case c.FrontEndDepth < 1:
		return fmt.Errorf("pipeline: front-end depth %d < 1", c.FrontEndDepth)
	case c.IntALUs <= 0 || c.MemPorts <= 0 || c.FPALUs <= 0 ||
		c.IntMultDiv <= 0 || c.FPMultDiv <= 0:
		return fmt.Errorf("pipeline: non-positive FU counts in %+v", c)
	case c.LSQSize > c.RUUSize:
		return fmt.Errorf("pipeline: LSQ (%d) larger than RUU (%d)", c.LSQSize, c.RUUSize)
	}
	return nil
}

// Activity is the per-cycle structure access record consumed by the power
// model. Counts are events in this cycle.
type Activity struct {
	FetchEnabled  bool
	Fetched       int
	ICacheAccess  int
	BPredAccess   int
	WindowInserts int // RUU dispatch writes
	WindowIssues  int // RUU issue reads
	WindowWakeups int // completion broadcasts
	LSQInserts    int
	LSQSearches   int // store-to-load forwarding searches
	RegReads      int
	RegWrites     int
	IntOps        int
	FPOps         int
	DCacheAccess  int
	L2Access      int
	Commits       int
	// Occupancy snapshots for idle-power estimation.
	RUUOccupancy int
	LSQOccupancy int
}

// Reset zeroes the record.
func (a *Activity) Reset() { *a = Activity{} }

// Stats accumulates run-level results.
type Stats struct {
	Cycles       uint64
	Committed    uint64
	Fetched      uint64
	WrongPathOps uint64
	Squashes     uint64
	FetchGatedCy uint64 // cycles with fetch disabled by DTM
	SpecStallCy  uint64 // cycles stalled by speculation control
}

// IPC returns committed instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

type entryState uint8

const (
	stWaiting entryState = iota
	stIssued
	stDone
)

type producerRef struct {
	slot  int
	seq   uint64
	valid bool
}

// nilIdx terminates the intrusive scheduler lists below.
const nilIdx = int16(-1)

type entry struct {
	op        isa.MicroOp
	pred      bpred.Prediction
	hasPred   bool
	wrongPath bool
	mispred   bool // resolves to a squash
	state     entryState
	doneCycle uint64
	src       [2]producerRef
	inLSQ     bool
	lsqIdx    int // ring index in Core.lsq while inLSQ

	// Intrusive scheduler state. depHead chains the entries waiting on
	// this entry's result (node encoding slot<<1|srcIdx); depNext[i] is
	// this entry's link within the producer chain of source i; pending
	// counts sources not yet available; bucketNext chains entries that
	// complete on the same cycle (see Core.buckets).
	depHead    int16
	depNext    [2]int16
	bucketNext int16
	pending    uint8
}

type fetched struct {
	op        isa.MicroOp
	pred      bpred.Prediction
	hasPred   bool
	wrongPath bool
	mispred   bool
	readyAt   uint64 // earliest dispatch cycle (front-end depth)
}

// Core is the simulated processor.
type Core struct {
	cfg  Config
	gen  workload.Source
	pred *bpred.Predictor
	il1  *cache.Cache
	dl1  *cache.Cache
	l2   *cache.Cache
	tlb  *cache.TLB

	cycle uint64
	stats Stats

	// RUU ring buffer.
	ruu      []entry
	ruuHead  int
	ruuCount int

	// LSQ ring of RUU slot indices in program order.
	lsq      []int
	lsqHead  int
	lsqCount int

	// IFQ ring.
	ifq      []fetched
	ifqHead  int
	ifqCount int

	regProd [isa.NumArchRegs]producerRef

	// Fetch state.
	fetchReady     uint64 // icache-miss stall until this cycle
	wrongPathMode  bool
	wrongPC        uint64
	unresolvedCtrl int

	// Same-line fetch filter: the I-cache is only ever accessed through
	// the per-cycle fetch probe, so a probe to the same block as the
	// previous hit cannot have been evicted in between and re-touching
	// the MRU line is an LRU no-op — skip the lookup, count the access.
	il1Shift      uint
	lastFetchLine uint64
	lastFetchHit  bool

	// DTM actuator state.
	fetchDuty     float64
	dutyAcc       float64
	fetchLimit    int // throttling: max ops fetched per cycle (0 = cfg width)
	maxUnresolved int // speculation control (0 = off)

	// Scheduler acceleration structures (exact-semantics replacements
	// for the O(RUU) per-cycle complete/issue scans). readyBits holds one
	// bit per RUU slot, set exactly when the slot holds a stWaiting entry
	// whose sources are all available. buckets is a power-of-two ring of
	// completion-chain heads indexed by doneCycle&bucketMask; each chain
	// (linked via entry.bucketNext) holds the stIssued entries finishing
	// on that cycle. Because the ring is longer than the longest possible
	// latency and is drained every cycle, distinct cycles never collide.
	readyBits  []uint64
	buckets    []int16
	bucketMask uint64

	// progress watchdog
	lastCommitCycle uint64

	// CommitHook, when non-nil, is invoked for every committed op in
	// retirement order (testing and tracing).
	CommitHook func(op *isa.MicroOp)
}

// Clone returns an independent deep copy of the core running the given
// instruction source (normally a clone of the original's source, positioned
// identically). Every microarchitectural structure — predictor, cache
// hierarchy (preserving the shared-L2 topology), TLB, RUU/LSQ/IFQ rings,
// scheduler acceleration state, and the DTM actuator knobs — is copied so
// the clone steps bit-identically to how the original would have. The
// CommitHook is carried over as-is.
func (c *Core) Clone(gen workload.Source) *Core {
	q := *c
	q.gen = gen
	q.pred = c.pred.Clone()
	q.l2 = c.l2.Clone(nil)
	q.il1 = c.il1.Clone(q.l2)
	q.dl1 = c.dl1.Clone(q.l2)
	q.tlb = c.tlb.Clone()
	q.ruu = append(c.ruu[:0:0], c.ruu...)
	q.lsq = append(c.lsq[:0:0], c.lsq...)
	q.ifq = append(c.ifq[:0:0], c.ifq...)
	q.readyBits = append(c.readyBits[:0:0], c.readyBits...)
	q.buckets = append(c.buckets[:0:0], c.buckets...)
	return &q
}

// New builds a core running the given instruction source, normally a
// workload.Generator. The L2 is shared between the instruction and data
// caches.
func New(cfg Config, gen workload.Source) (*Core, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if gen == nil {
		return nil, fmt.Errorf("pipeline: nil workload generator")
	}
	l2 := cache.New(cfg.L2, nil)
	c := &Core{
		cfg:  cfg,
		gen:  gen,
		pred: bpred.New(cfg.BPred),
		il1:  cache.New(cfg.L1I, l2),
		dl1:  cache.New(cfg.L1D, l2),
		l2:   l2,
		tlb:  cache.DefaultTLB(),
		ruu:  make([]entry, cfg.RUUSize),
		lsq:  make([]int, cfg.LSQSize),
		// The IFQ buffer also models the front-end pipe registers:
		// ops spend FrontEndDepth cycles in flight before dispatch,
		// so sustaining full width needs depth*width slots on top of
		// the architectural fetch queue.
		ifq: make([]fetched, cfg.IFQSize+cfg.FrontEndDepth*cfg.DecodeWidth),

		fetchDuty: 1.0,
	}
	// Size the completion ring to the worst-case op latency: TLB miss +
	// L1D + L2 + memory for loads, which dominates every FU latency.
	maxLat := 30 + cfg.L1D.Latency + cfg.L2.Latency + cache.MemLatency + 33
	ring := 1
	for ring <= maxLat {
		ring <<= 1
	}
	c.buckets = make([]int16, ring)
	for i := range c.buckets {
		c.buckets[i] = nilIdx
	}
	c.bucketMask = uint64(ring - 1)
	c.readyBits = make([]uint64, (cfg.RUUSize+63)/64)
	for 1<<c.il1Shift < cfg.L1I.BlockSize {
		c.il1Shift++
	}
	return c, nil
}

func (c *Core) setReady(slot int)   { c.readyBits[slot>>6] |= 1 << (uint(slot) & 63) }
func (c *Core) clearReady(slot int) { c.readyBits[slot>>6] &^= 1 << (uint(slot) & 63) }

// pushBucket files an issued entry under its completion cycle.
func (c *Core) pushBucket(slot int, done uint64) {
	if done-c.cycle > c.bucketMask {
		panic(fmt.Sprintf("pipeline: completion latency %d exceeds bucket ring %d",
			done-c.cycle, len(c.buckets)))
	}
	b := done & c.bucketMask
	c.ruu[slot].bucketNext = c.buckets[b]
	c.buckets[b] = int16(slot)
}

// Stats returns a copy of the accumulated statistics.
func (c *Core) Stats() Stats { return c.stats }

// Cycle returns the current cycle number.
func (c *Core) Cycle() uint64 { return c.cycle }

// BPredStats exposes the branch predictor counters.
func (c *Core) BPredStats() bpred.Stats { return c.pred.Stats() }

// CacheStats returns (L1I, L1D, L2) statistics.
func (c *Core) CacheStats() (il1, dl1, l2 cache.Stats) {
	return c.il1.Stats(), c.dl1.Stats(), c.l2.Stats()
}

// SetFetchDuty sets the DTM fetch-toggling duty in [0,1]: the long-run
// fraction of cycles on which instruction fetch is enabled. 1 disables
// gating; 0 stops fetch entirely (toggle1); 0.5 fetches every other cycle
// (toggle2).
func (c *Core) SetFetchDuty(d float64) {
	if d < 0 {
		d = 0
	}
	if d > 1 {
		d = 1
	}
	c.fetchDuty = d
}

// FetchDuty returns the current fetch duty.
func (c *Core) FetchDuty() float64 { return c.fetchDuty }

// SetFetchLimit bounds the number of instructions fetched per cycle
// (fetch throttling); 0 restores the configured fetch width.
func (c *Core) SetFetchLimit(n int) { c.fetchLimit = n }

// SetMaxUnresolvedBranches enables speculation control: fetch stalls while
// more than n unresolved control transfers are in flight; 0 disables.
func (c *Core) SetMaxUnresolvedBranches(n int) { c.maxUnresolved = n }

func (c *Core) slotAt(pos int) int { return (c.ruuHead + pos) % len(c.ruu) }

// Step advances the core one cycle, filling act with this cycle's
// structure activity, and returns the number of instructions committed.
func (c *Core) Step(act *Activity) int {
	act.Reset()
	c.cycle++
	c.commit(act)
	c.complete(act)
	c.issue(act)
	c.dispatch(act)
	c.fetch(act)
	act.RUUOccupancy = c.ruuCount
	act.LSQOccupancy = c.lsqCount
	c.stats.Cycles++
	if act.Commits > 0 {
		c.lastCommitCycle = c.cycle
	} else if c.cycle-c.lastCommitCycle > 1_000_000 && c.fetchDuty > 0 {
		panic(fmt.Sprintf("pipeline: no commit in 1M cycles (cycle %d, ruu %d, ifq %d, wrongPath %v)",
			c.cycle, c.ruuCount, c.ifqCount, c.wrongPathMode))
	}
	return act.Commits
}

// commit retires up to CommitWidth completed entries in program order.
func (c *Core) commit(act *Activity) {
	for n := 0; n < c.cfg.CommitWidth && c.ruuCount > 0; n++ {
		e := &c.ruu[c.ruuHead]
		if e.state != stDone || e.doneCycle > c.cycle {
			return
		}
		if e.wrongPath {
			panic("pipeline: wrong-path op reached commit")
		}
		op := &e.op
		if op.Class == isa.OpStore {
			// Stores write the data cache at commit; the write is
			// buffered, so its latency is off the critical path.
			c.dl1.Access(op.Addr, true)
			act.DCacheAccess++
		}
		if op.Class.IsCtrl() && e.hasPred {
			c.pred.Update(op.PC, op.Class, op.Taken, op.NextPC(), e.pred)
			act.BPredAccess++
		}
		if e.inLSQ {
			if c.lsqCount == 0 || c.lsq[c.lsqHead] != c.ruuHead {
				panic("pipeline: LSQ/RUU commit order mismatch")
			}
			c.lsqHead = (c.lsqHead + 1) % len(c.lsq)
			c.lsqCount--
		}
		if c.CommitHook != nil {
			c.CommitHook(op)
		}
		c.ruuHead = (c.ruuHead + 1) % len(c.ruu)
		c.ruuCount--
		c.stats.Committed++
		act.Commits++
	}
}

// complete drains this cycle's completion bucket: issued entries whose
// latency elapsed become done, their dependents' pending counts drop
// (waking those that become fully ready), and resolving mispredicted
// control transfers trigger recovery at the oldest such entry.
func (c *Core) complete(act *Activity) {
	b := c.cycle & c.bucketMask
	s := c.buckets[b]
	if s < 0 {
		return
	}
	c.buckets[b] = nilIdx
	resolveAt := -1
	for s >= 0 {
		e := &c.ruu[s]
		next := e.bucketNext
		e.bucketNext = nilIdx
		e.state = stDone
		act.WindowWakeups++
		if e.op.Dest != isa.RegNone {
			act.RegWrites++
		}
		if e.op.Class.IsCtrl() && !e.wrongPath {
			c.unresolvedCtrl--
			if e.mispred {
				pos := int(s) - c.ruuHead
				if pos < 0 {
					pos += len(c.ruu)
				}
				if resolveAt < 0 || pos < resolveAt {
					resolveAt = pos
				}
			}
		}
		// Wake dependents.
		for n := e.depHead; n >= 0; {
			slot := int(n >> 1)
			i := int(n & 1)
			d := &c.ruu[slot]
			n = d.depNext[i]
			if d.state == stWaiting && d.pending > 0 {
				if d.pending--; d.pending == 0 {
					c.setReady(slot)
				}
			}
		}
		e.depHead = nilIdx
		s = next
	}
	if resolveAt >= 0 {
		c.recover(resolveAt)
	}
}

// recover squashes everything younger than the mispredicted entry at RUU
// position pos, repairs predictor state, and redirects fetch to the
// correct path.
func (c *Core) recover(pos int) {
	s := c.slotAt(pos)
	e := &c.ruu[s]
	c.pred.Recover(e.op.Class, e.op.Taken, e.pred)
	// Drop younger RUU entries (they are all wrong-path or younger
	// speculative work) and their LSQ slots.
	for c.ruuCount > pos+1 {
		tail := c.slotAt(c.ruuCount - 1)
		te := &c.ruu[tail]
		if te.op.Class.IsCtrl() && !te.wrongPath && te.state != stDone {
			c.unresolvedCtrl--
		}
		if te.inLSQ {
			if c.lsqCount == 0 {
				panic("pipeline: LSQ underflow on squash")
			}
			lsqTail := (c.lsqHead + c.lsqCount - 1) % len(c.lsq)
			if c.lsq[lsqTail] != tail {
				panic("pipeline: LSQ tail does not match squashed RUU entry")
			}
			c.lsqCount--
		}
		te.state = stDone // inert
		c.ruuCount--
	}
	e.mispred = false
	// Flush the front end.
	c.ifqHead, c.ifqCount = 0, 0
	c.wrongPathMode = false
	c.stats.Squashes++
	c.rebuildProducers()
	c.rebuildScheduler()
	// Redirect: fetch resumes on the correct path next cycle; the
	// front-end depth models the refill penalty.
	if c.fetchReady < c.cycle+1 {
		c.fetchReady = c.cycle + 1
	}
}

// rebuildProducers reconstructs the register producer table from surviving
// RUU entries after a squash.
func (c *Core) rebuildProducers() {
	for i := range c.regProd {
		c.regProd[i] = producerRef{}
	}
	s := c.ruuHead
	for p := 0; p < c.ruuCount; p++ {
		e := &c.ruu[s]
		if e.op.Dest != isa.RegNone && e.state != stDone {
			c.regProd[e.op.Dest] = producerRef{slot: s, seq: e.op.Seq, valid: true}
		} else if e.op.Dest != isa.RegNone {
			c.regProd[e.op.Dest] = producerRef{}
		}
		if s++; s == len(c.ruu) {
			s = 0
		}
	}
}

// rebuildScheduler reconstructs the ready bitmap, completion buckets and
// dependency chains from surviving RUU entries after a squash. Squashed
// entries may sit in completion buckets and dependent chains; rebuilding
// from scratch removes every such stale reference (chains must only ever
// hold live entries, or slot reuse would corrupt them).
func (c *Core) rebuildScheduler() {
	for i := range c.readyBits {
		c.readyBits[i] = 0
	}
	for i := range c.buckets {
		c.buckets[i] = nilIdx
	}
	s := c.ruuHead
	for p := 0; p < c.ruuCount; p++ {
		c.ruu[s].depHead = nilIdx
		if s++; s == len(c.ruu) {
			s = 0
		}
	}
	s = c.ruuHead
	for p := 0; p < c.ruuCount; p++ {
		e := &c.ruu[s]
		switch e.state {
		case stIssued:
			// recover runs after this cycle's bucket drained, so every
			// surviving issued entry still completes in the future.
			e.bucketNext = nilIdx
			c.pushBucket(s, e.doneCycle)
		case stWaiting:
			e.pending = 0
			e.depNext[0], e.depNext[1] = nilIdx, nilIdx
			for i := range e.src {
				ref := e.src[i]
				if !ref.valid {
					continue
				}
				pe := &c.ruu[ref.slot]
				if pe.op.Seq == ref.seq && pe.state != stDone {
					e.pending++
					e.depNext[i] = pe.depHead
					pe.depHead = int16(s<<1 | i)
				}
			}
			if e.pending == 0 {
				c.setReady(s)
			}
		}
		if s++; s == len(c.ruu) {
			s = 0
		}
	}
}

// issue selects up to IssueWidth ready entries oldest-first, respecting
// per-side issue limits, functional-unit counts and memory ports. Ready
// entries are found by iterating the ready bitmap in ring order (two
// ascending-slot segments starting at ruuHead); entries skipped for lack
// of an issue slot or functional unit keep their bit for the next cycle.
func (c *Core) issue(act *Activity) {
	if c.ruuCount == 0 {
		return
	}
	issued := 0
	intIss, fpIss := 0, 0
	intALU, intMD, fpALU, fpMD, mem := c.cfg.IntALUs, c.cfg.IntMultDiv,
		c.cfg.FPALUs, c.cfg.FPMultDiv, c.cfg.MemPorts
	n := len(c.ruu)
	for seg := 0; seg < 2 && issued < c.cfg.IssueWidth; seg++ {
		lo, hi := c.ruuHead, n
		if seg == 1 {
			lo, hi = 0, c.ruuHead
		}
		if lo >= hi {
			continue
		}
		for wi := lo >> 6; wi <= (hi-1)>>6 && issued < c.cfg.IssueWidth; wi++ {
			w := c.readyBits[wi]
			if w == 0 {
				continue
			}
			base := wi << 6
			if base < lo {
				w &= ^uint64(0) << (uint(lo) & 63)
			}
			if base+64 > hi {
				w &= ^uint64(0) >> (64 - uint(hi-base))
			}
			for w != 0 && issued < c.cfg.IssueWidth {
				slot := base + bits.TrailingZeros64(w)
				w &= w - 1
				e := &c.ruu[slot]
				cls := e.op.Class
				fp := cls.IsFP()
				if fp && fpIss >= c.cfg.FPIssue {
					continue
				}
				if !fp && intIss >= c.cfg.IntIssue {
					continue
				}
				// Functional unit availability.
				switch cls {
				case isa.OpIntMult, isa.OpIntDiv:
					if intMD == 0 {
						continue
					}
					intMD--
				case isa.OpFPALU:
					if fpALU == 0 {
						continue
					}
					fpALU--
				case isa.OpFPMult, isa.OpFPDiv:
					if fpMD == 0 {
						continue
					}
					fpMD--
				case isa.OpLoad, isa.OpStore:
					if mem == 0 {
						continue
					}
					mem--
				default:
					if intALU == 0 {
						continue
					}
					intALU--
				}
				lat := cls.Latency()
				switch cls {
				case isa.OpLoad:
					lat = c.loadLatency(act, e)
				case isa.OpStore:
					// Address generation only; the write happens
					// at commit.
					lat = 1
				}
				e.state = stIssued
				e.doneCycle = c.cycle + uint64(lat)
				c.clearReady(slot)
				c.pushBucket(slot, e.doneCycle)
				issued++
				if fp {
					fpIss++
					act.FPOps++
				} else {
					intIss++
					if !cls.IsMem() {
						act.IntOps++
					}
				}
				act.WindowIssues++
				if e.op.Src1 != isa.RegNone {
					act.RegReads++
				}
				if e.op.Src2 != isa.RegNone {
					act.RegReads++
				}
			}
		}
	}
}

// loadLatency resolves a load: store-to-load forwarding from an older LSQ
// store to the same address, otherwise a TLB+cache access.
func (c *Core) loadLatency(act *Activity, e *entry) int {
	act.LSQSearches++
	// Walk older LSQ entries newest-first looking for a matching store.
	myPos := (e.lsqIdx - c.lsqHead + len(c.lsq)) % len(c.lsq)
	for i := myPos - 1; i >= 0; i-- {
		idx := c.lsq[(c.lsqHead+i)%len(c.lsq)]
		pe := &c.ruu[idx]
		if pe.op.Class == isa.OpStore && pe.op.Addr == e.op.Addr {
			return 1 // forwarded
		}
	}
	if c.cfg.PerfectDCache {
		act.DCacheAccess++
		return c.cfg.L1D.Latency
	}
	tlbLat, _ := c.tlb.Access(e.op.Addr)
	clat, _ := c.dl1.Access(e.op.Addr, false)
	act.DCacheAccess++
	if clat > c.cfg.L1D.Latency {
		act.L2Access++
	}
	return tlbLat + clat
}

// dispatch moves decoded ops from the IFQ into the RUU/LSQ.
func (c *Core) dispatch(act *Activity) {
	for n := 0; n < c.cfg.DecodeWidth && c.ifqCount > 0; n++ {
		f := &c.ifq[c.ifqHead]
		if f.readyAt > c.cycle {
			return // still in the front-end pipe
		}
		if c.ruuCount == len(c.ruu) {
			return
		}
		isMem := f.op.Class.IsMem()
		if isMem && c.lsqCount == len(c.lsq) {
			return
		}
		slot := c.slotAt(c.ruuCount)
		// Every field is written in place: a composite-literal store
		// would build the entry on the stack and block-copy it.
		e := &c.ruu[slot]
		e.op = f.op
		e.pred = f.pred
		e.hasPred = f.hasPred
		e.wrongPath = f.wrongPath
		e.mispred = f.mispred
		e.state = stWaiting
		e.doneCycle = 0
		e.src = [2]producerRef{}
		e.inLSQ = false
		e.lsqIdx = 0
		e.depHead = nilIdx
		e.depNext = [2]int16{nilIdx, nilIdx}
		e.bucketNext = nilIdx
		e.pending = 0
		for i, src := range [2]int16{f.op.Src1, f.op.Src2} {
			if src == isa.RegNone {
				continue
			}
			if pr := c.regProd[src]; pr.valid {
				e.src[i] = pr
				p := &c.ruu[pr.slot]
				// The producer is still in flight exactly when the
				// slot has not been recycled and its result has not
				// been broadcast; link into its dependent chain.
				if p.op.Seq == pr.seq && p.state != stDone {
					e.pending++
					e.depNext[i] = p.depHead
					p.depHead = int16(slot<<1 | i)
				}
			}
		}
		if e.pending == 0 {
			c.setReady(slot)
		}
		if f.op.Dest != isa.RegNone {
			c.regProd[f.op.Dest] = producerRef{slot: slot, seq: f.op.Seq, valid: true}
		}
		if isMem {
			ring := (c.lsqHead + c.lsqCount) % len(c.lsq)
			c.lsq[ring] = slot
			c.lsqCount++
			e.inLSQ = true
			e.lsqIdx = ring
			act.LSQInserts++
		}
		if f.op.Class.IsCtrl() && !f.wrongPath {
			c.unresolvedCtrl++
		}
		c.ruuCount++
		c.ifqHead = (c.ifqHead + 1) % len(c.ifq)
		c.ifqCount--
		act.WindowInserts++
	}
}

// fetch brings up to FetchWidth ops into the IFQ, subject to the DTM gate,
// I-cache readiness, speculation control, and fetch breaks at predicted-
// taken control transfers.
func (c *Core) fetch(act *Activity) {
	// DTM fetch-toggling gate.
	c.dutyAcc += c.fetchDuty
	if c.dutyAcc < 1 {
		c.stats.FetchGatedCy++
		return
	}
	c.dutyAcc -= 1
	act.FetchEnabled = true

	if c.fetchReady > c.cycle {
		return
	}
	if c.maxUnresolved > 0 && c.unresolvedCtrl > c.maxUnresolved {
		c.stats.SpecStallCy++
		return
	}
	width := c.cfg.FetchWidth
	if c.fetchLimit > 0 && c.fetchLimit < width {
		width = c.fetchLimit
	}
	if c.ifqCount == len(c.ifq) {
		return
	}
	// One I-cache access of fetch-width granularity per cycle
	// (Section 5.1's fetch-model fix).
	pcProbe := c.nextFetchPC()
	var lat int
	var miss bool
	if line := pcProbe >> c.il1Shift; c.lastFetchHit && line == c.lastFetchLine {
		c.il1.CountHit()
		lat, miss = c.cfg.L1I.Latency, false
	} else {
		lat, miss = c.il1.Access(pcProbe, false)
		c.lastFetchLine, c.lastFetchHit = line, !miss
	}
	act.ICacheAccess++
	if miss && !c.cfg.PerfectICache {
		c.fetchReady = c.cycle + uint64(lat)
		return
	}
	readyAt := c.cycle + uint64(c.cfg.FrontEndDepth)
	for n := 0; n < width && c.ifqCount < len(c.ifq); n++ {
		// Fill the free IFQ slot in place rather than copying a local.
		f := &c.ifq[(c.ifqHead+c.ifqCount)%len(c.ifq)]
		f.readyAt = readyAt
		f.pred, f.hasPred, f.mispred = bpred.Prediction{}, false, false
		if c.wrongPathMode {
			f.op = c.gen.WrongPath(c.wrongPC)
			f.wrongPath = true
			c.wrongPC += 4
			c.stats.WrongPathOps++
		} else {
			f.op = c.gen.Next()
			f.wrongPath = false
		}
		act.Fetched++
		c.stats.Fetched++
		stop := false
		if f.op.Class.IsCtrl() && !f.wrongPath && c.cfg.PerfectBPred {
			// Oracle prediction: the direction and target are always
			// right, so fetch only breaks at taken transfers. The
			// predictor arrays are still read (energy), not trained.
			act.BPredAccess++
			if f.op.Taken || f.op.Class != isa.OpBranch {
				stop = true
			}
		} else if f.op.Class.IsCtrl() && !f.wrongPath {
			f.pred = c.pred.Predict(f.op.PC, f.op.Class)
			f.hasPred = true
			act.BPredAccess++
			actualTaken := f.op.Taken || f.op.Class != isa.OpBranch
			actualTarget := f.op.NextPC()
			switch {
			case f.pred.Taken != actualTaken:
				f.mispred = true
			case actualTaken && (!f.pred.BTBHit || f.pred.Target != actualTarget):
				f.mispred = true
			}
			if f.mispred {
				// Fetch continues down the (wrong) predicted
				// path next cycle.
				c.wrongPathMode = true
				if f.pred.Taken && f.pred.BTBHit {
					c.wrongPC = f.pred.Target
				} else if f.pred.Taken {
					c.wrongPC = f.op.PC + 0x1000 // unknown target
				} else {
					c.wrongPC = f.op.FallThrough()
				}
				stop = true
			} else if f.pred.Taken {
				stop = true // fetch break at taken control transfer
			}
		}
		c.ifqCount++
		if stop {
			break
		}
	}
}

// nextFetchPC returns the PC the next fetch will target, for the I-cache
// probe.
func (c *Core) nextFetchPC() uint64 {
	if c.wrongPathMode {
		return c.wrongPC
	}
	return c.gen.PeekPC()
}

// UnresolvedBranches returns the count of in-flight unresolved control
// transfers (speculation-control observability).
func (c *Core) UnresolvedBranches() int { return c.unresolvedCtrl }

// FetchLimit returns the current fetch-throttling limit (0 = full width).
func (c *Core) FetchLimit() int { return c.fetchLimit }

// MaxUnresolvedLimit returns the current speculation-control bound
// (0 = disabled).
func (c *Core) MaxUnresolvedLimit() int { return c.maxUnresolved }
