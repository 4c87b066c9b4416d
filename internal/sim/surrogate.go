package sim

import "math"

// Macro-stepped pipeline surrogate execution (Config.PipelineSurrogate).
//
// The DTM loop of the paper samples temperatures every 1000 cycles and the
// thermal time constants are tens of microseconds, so inside a workload
// phase's steady state nothing observable depends on cycle-exact pipeline
// behaviour — only on the per-block mean power and the instruction
// throughput. The surrogate exploits this the way model-order reduction
// replaces a full RC network with a small calibrated stand-in: run the real
// pipeline for a warm-up window, record the mean per-block dynamic power,
// the chip-overhead power and the IPC under the current operating point
// (workload phase × DTM actuation × clock frequency), then replay those
// statistics analytically one thermal window at a time. The pipeline and
// power model are frozen during replay; the workload generator is advanced
// by the calibrated IPC so the instruction stream stays aligned for the
// next cycle-exact span.
//
// Replay is bounded by everything that invalidates the calibration:
//   - the operating-point key changes (DTM actuation, frequency, phase);
//   - the generator approaches a phase transition (surPhaseMarginInsts);
//   - the run approaches its instruction budget (the final approach is
//     simulated cycle-exact so the run ends on a real committed count);
//   - a trigger-mechanism stall arrives (stalls run cycle-exact);
//   - the calibration exceeds its replay budget and must be refreshed.
//
// Error sources, all bounded by TestSurrogateEquivalence*: the mean-power
// substitution within windows (shared with the thermal fast path), the
// splice transient when the frozen pipeline resumes, and calibration bias
// when a phase is not perfectly stationary.

// Tuning constants.
const (
	// surWarmupCycles is one cycle-exact calibration window: 128 thermal
	// windows. The synthetic workloads are quasi-periodic (the
	// generator's loop-set sweep spans tens of thousands of instructions)
	// so short windows alias the sweep; 32K cycles averages a few sweeps
	// and brings adjacent-window IPC noise to ~5% median on the suite.
	surWarmupCycles = 128 * DefaultThermalStride
	// surStableRelTol is the stationarity/audit test: a calibration
	// window must agree with the stored stats on IPC and on the power
	// vector within this relative tolerance. It sits above the
	// steady-state window noise (p90 ≈ 11% at this window size) scaled
	// by the EWMA's smoothing, and below the per-window drift of a cache
	// cold start, which is what it exists to reject.
	surStableRelTol = 0.10
	// surMinReplay / surMaxReplay bound the slow-start replay budget: a
	// freshly validated calibration replays surMinReplay cycles, then
	// must pass an exact audit window; every passed audit doubles the
	// budget up to surMaxReplay, and a failed audit resets it. Slow
	// drift (cache warm-up tails, predictor training) therefore costs
	// short replay legs instead of accumulating, while genuinely steady
	// phases converge to one 32K audit per 2M replayed cycles (~1.6%
	// cycle-exact duty).
	surMinReplay = 4 * surWarmupCycles
	surMaxReplay = 16 * surMinReplay
	// surPhaseMarginInsts is the instruction margin around phase
	// transitions (and the end-of-run budget) executed cycle-exact.
	surPhaseMarginInsts = 2048
	// surMaxCals caps the calibration store. Keys are quantized duty
	// levels × frequency settings × integer throttle bounds per phase, so
	// real policies stay far below the cap; when it is full, new keys
	// simply run cycle-exact.
	surMaxCals = 64
	// Drift gate. Adjacent-window agreement alone cannot tell a steady
	// phase from slow monotone creep (cache fill, predictor training):
	// the per-window drift of a warm-up tail sits inside the noise
	// tolerance, and — worse — an audit window right after a replay leg
	// compares the frozen, unaged pipeline against stats taken from that
	// same state, so it always agrees. The gate instead keeps a ring of
	// the last surHistLen completed-window IPCs that carry real aging
	// (windows right after a replay splice are excluded) and estimates
	// the creep RATE from the old-half vs new-half means: quasi-periodic
	// window noise averages down as 1/sqrt(N) while monotone creep
	// accumulates linearly, so slow warm-up tails far below the
	// single-pair noise floor are still resolved. Entries are stamped
	// with the calibration's cumulative cycle-exact age, so the halves
	// yield a creep rate PER EXACT CYCLE regardless of how replay legs
	// interleave. The rate then sets the replay budget directly (see
	// surUpdate): a leg of B frozen cycles leaves the pipeline B cycles
	// less aged than the exact run would be, a staleness of rate x B, so
	// capping the budget at surStaleFrac / rate keeps the replayed IPC
	// error inside the documented drift bound by construction — steady
	// phases earn surMaxReplay legs, creeping ones get exactly the leg
	// length their creep affords, and fast warm-up blocks replay
	// outright.
	surHistLen = 32
	// surHistMin is the minimum ring fill before replay may engage.
	surHistMin = 4
	// surStaleFrac is the IPC staleness allowed to accumulate across one
	// replay leg, the per-leg slice of surCycleDriftTol-style error.
	surStaleFrac = 0.03
	// surIPCFloor keeps relative deltas bounded for near-idle windows.
	surIPCFloor = 0.05
	// surAllocMinSpan gates calibration-store allocation: an operating
	// point earns a slot only once a contiguous span at that point has
	// survived this many cycles. Continuous-actuation policies (PI, PID)
	// emit a fresh duty value nearly every sample; without the gate those
	// one-sample transients would exhaust the store. Points a controller
	// actually dwells on — rails, converged equilibria, discrete toggle
	// or scaling levels — pass easily.
	surAllocMinSpan = 2048
	// surTrendRun is the number of consecutive completed windows whose
	// creep-rate budget cap must clear surMinReplay before replay may
	// engage. The half-mean rate estimate is noisy; during a persistent
	// ramp it occasionally spikes high for a single window, and one
	// spike must not buy a replay leg whose staleness the true rate
	// cannot afford — and on a staircase-shaped warm-up (plateaus
	// between jumps) the spikes come in pairs, so the run must be long
	// enough to span a jump. Genuinely steady phases clear the cap every
	// window (the counter does not reset on stats reseeds) and pay only
	// the extra windows once per calibration birth or creep episode.
	surTrendRun = 4
)

// surKey identifies one steady-state operating point.
type surKey struct {
	phase         int
	duty          float64
	freq          float64
	fetchLimit    int
	maxUnresolved int
}

// surCal is one calibrated activity vector. Until valid, the stats hold
// the most recent completed warm-up window (the stationarity candidate).
type surCal struct {
	power    []float64           // mean per-block dynamic power, pre-scaling, pre-leakage
	extra    float64             // mean chip-overhead power (power.Model.ChipOverhead)
	ipc      float64             // committed instructions per cycle
	acc      []float64           // partial-window power sums (assembled across spans)
	accExtra float64             // partial-window chip-overhead sum
	accInsts uint64              // partial-window committed instructions
	warm     uint64              // partial-window accumulated cycles
	hist     [surHistLen]float64 // ring of completed-window IPCs
	histAge  [surHistLen]float64 // ring of window ages (cycle-exact cycles)
	histN    int                 // ring fill
	histPos  int                 // ring write cursor
	ageC     float64             // cumulative cycle-exact cycles folded
	replayed uint64              // cycles replayed since the last audit
	budget   uint64              // slow-start replay allowance until the next audit
	seeded   bool                // stats hold at least one completed window
	valid    bool                // stationarity/audit/trend passed; replay allowed
	splice   bool                // a replay leg separates prevIPC's window from the next
	legSince bool                // a replay leg happened since the last validation
	trendRun int                 // consecutive windows with budget cap >= surMinReplay
	banked   bool                // stats adopted from a gang-shared calibration bank
}

// budgetFor estimates the IPC creep rate per cycle-exact cycle over the
// newest n ring entries (old-half mean vs new-half mean over mid-window
// ages) and returns the replay budget that keeps leg staleness within
// surStaleFrac: surStaleFrac / rate, clamped to surMaxReplay. Returns 0
// when there is too little history or age span to tell.
func (cal *surCal) budgetFor(n int) uint64 {
	half := n / 2
	if half < surHistMin/2 {
		return 0
	}
	var oldSum, newSum, oldAge, newAge float64
	for i := 0; i < half; i++ {
		o := (cal.histPos - 2*half + i + 2*surHistLen) % surHistLen
		w := (cal.histPos - half + i + 2*surHistLen) % surHistLen
		oldSum += cal.hist[o]
		oldAge += cal.histAge[o]
		newSum += cal.hist[w]
		newAge += cal.histAge[w]
	}
	oldM, newM := oldSum/float64(half), newSum/float64(half)
	den := math.Max(math.Max(oldM, newM), surIPCFloor)
	dAge := (newAge - oldAge) / float64(half)
	if dAge <= 0 {
		return 0
	}
	rate := math.Abs(newM-oldM) / (den * dAge)
	if b := surStaleFrac / math.Max(rate, 1e-12); b < surMaxReplay {
		return uint64(b)
	}
	return surMaxReplay
}

// surEntry is one calibration-store slot.
type surEntry struct {
	key surKey
	cal *surCal
}

// curKey returns the operating point in force right now.
func (s *Sim) curKey() surKey {
	return surKey{
		phase:         s.gen.PhaseIndex(),
		duty:          s.duty,
		freq:          s.freqFactor,
		fetchLimit:    s.core.FetchLimit(),
		maxUnresolved: s.core.MaxUnresolvedLimit(),
	}
}

// lookup finds the calibration entry for key, or nil. Linear search over a
// small fixed-capacity slice: no hashing, no allocation, and the store is
// bounded by surMaxCals.
func (s *Sim) lookup(key surKey) *surCal {
	for i := range s.surCals {
		if s.surCals[i].key == key {
			return s.surCals[i].cal
		}
	}
	return nil
}

// replayable returns the calibration to replay this Step, or nil when the
// simulation must run cycle-exact: mid-thermal-window, no (valid)
// calibration for the current operating point, near a phase transition or
// the instruction budget, or the calibration's replay budget is spent
// (which also invalidates it, forcing a recalibration).
func (s *Sim) replayable() *surCal {
	if s.acct.winLeft != s.acct.winLen {
		return nil // let the partially accumulated window close first
	}
	key := s.curKey()
	var cal *surCal
	if s.surAccOK && key == s.surAccKey {
		cal = s.surAccCal // steady state: skip the store scan
	} else {
		cal = s.lookup(key)
	}
	if cal == nil || !cal.valid {
		return nil
	}
	if cal.replayed >= cal.budget {
		cal.valid = false // audit due: the next exact window re-checks
		return nil
	}
	if s.gen.PhaseInstsRemaining() <= surPhaseMarginInsts {
		return nil
	}
	if s.cfg.MaxInsts-(s.core.Stats().Committed+s.virtInsts) <= surPhaseMarginInsts {
		return nil
	}
	return cal
}

// stepReplay advances the simulation one whole thermal window analytically
// from cal. The window length is the fast path's (clamped to every DTM /
// scaling / trace / metrics boundary and the cycle budget), further
// clamped to the phase and instruction margins and the calibration's
// replay budget. It mirrors the cycle-exact Step stage for stage: power
// (scaling factor and leakage re-applied against the frozen window-start
// temperatures, exactly like the fast path's per-cycle leakage), thermal
// window flush, DTM sampling at the boundary, duty integral, traces and
// telemetry. The loop is allocation-free.
//
// Like Step, the body is split along the gang seam: replayWindow computes
// the (class-uniform) window length, replayMember advances one member's
// private state across it, and the remainder is the class-level
// bookkeeping on the shared workload stream and the leader-owned
// calibration store. None of the class-level steps feed the member-level
// arithmetic within one window, so the split is order-equivalent to the
// pre-refactor single body.
func (s *Sim) stepReplay(cal *surCal) {
	w := s.replayWindow(cal)
	fw := float64(w)
	// Credit instructions analytically (fractional carry keeps the
	// long-run rate exact); the workload stream is advanced to match
	// below, so phase accounting progresses and a later cycle-exact span
	// resumes at the right program position.
	insts := cal.ipc*fw + s.surCarry
	n := uint64(insts)
	carry := insts - float64(n)

	chip := s.replayMember(cal, w, n, carry)

	s.gen.Skip(n)
	cal.replayed += w
	// Bank the open calibration span, then mark the splice: the pipeline
	// was frozen through this leg, so the next completed window cannot
	// carry aging information (splice) and the one after it audits a
	// real leg (legSince).
	s.surPause()
	cal.splice = true
	cal.legSince = true
	s.surAccOK = false

	s.replayTail(chip, w)
}

// replayWindow returns the replay window length for cal: the fast path's
// next window clamped to the phase margin, the instruction budget and the
// calibration's remaining replay allowance. Every input is uniform across
// a gang class (the shared stream position, the class-uniform cycle and
// sampling schedule, the leader-owned calibration), so one call serves the
// whole class.
func (s *Sim) replayWindow(cal *surCal) uint64 {
	w := s.windowLen()
	if cal.ipc > 0 {
		if rem := s.gen.PhaseInstsRemaining() - surPhaseMarginInsts; rem > 0 {
			if maxW := uint64(float64(rem)/cal.ipc) + 1; maxW < w {
				w = maxW
			}
		}
		if rem := s.cfg.MaxInsts - (s.core.Stats().Committed + s.virtInsts) - surPhaseMarginInsts; rem > 0 {
			if maxW := uint64(float64(rem)/cal.ipc) + 1; maxW < w {
				w = maxW
			}
		}
	}
	if left := cal.budget - cal.replayed; left < w {
		w = left // replayable guarantees left >= 1
	}
	return w
}

// replayMember advances one member's private state across a w-cycle replay
// window calibrated by cal: scaled/leaked power against the frozen
// window-start temperatures, chip-power statistics, the thermal window
// flush, the analytic instruction credit (n whole instructions, carry
// fraction), the duty integral and the boundary DTM sample. Returns the
// member's chip power for the telemetry tail.
func (s *Sim) replayMember(cal *surCal, w, n uint64, carry float64) float64 {
	res := s.res
	pf := 1.0
	if s.hasScaling {
		pf = s.cfg.Scaling.PowerFactor()
	} else if s.hasHier {
		pf = s.cfg.Hierarchy.PowerFactor()
	}
	fw := float64(w)
	chip := cal.extra
	for i, p := range cal.power {
		p *= pf
		if s.hasLeak {
			p += s.cfg.Leakage.Power(s.leakPeak[i], s.acct.temps[i])
		}
		s.acct.powerAcc[i] = p * fw
		chip += p
	}
	s.chipPower.AddSpan(w, chip*fw, chip, chip)
	if chip > res.MaxChipPower {
		res.MaxChipPower = chip
	}
	stepDt := s.dt
	if s.freqFactor != 1 {
		stepDt = s.dt / s.freqFactor
	}
	res.WallSeconds += stepDt * fw
	res.ThermalSeconds += stepDt * fw

	s.cycle += w
	s.flush(w)
	s.winFlushed = true
	s.winFlushLen = w

	s.virtInsts += n
	s.surCarry = carry
	res.SurrogateCycles += w

	// Window-interior cycles ran at the pre-boundary duty; the boundary
	// cycle observes the post-sample duty, mirroring the exact path's
	// sample-then-integrate order.
	s.dutySum += s.duty * (fw - 1)
	s.sampleDTM(s.cycle)
	s.dutySum += s.duty
	s.acct.open(s.windowLen())
	return chip
}

// replayTail emits the replay window's trace and telemetry output. Gang
// execution rejects traced/instrumented configurations, so only the solo
// stepReplay calls it.
func (s *Sim) replayTail(chip float64, w uint64) {
	res := s.res
	cycle := s.cycle
	if s.hasTrace {
		_, hot := s.acct.net.Hottest()
		res.TempTrace.Bump(w - 1)
		res.TempTrace.Add(cycle, hot)
		res.DutyTrace.Bump(w - 1)
		res.DutyTrace.Add(cycle, s.duty)
		for i := range res.BlockTrace {
			res.BlockTrace[i].Bump(w - 1)
			res.BlockTrace[i].Add(cycle, s.acct.temps[i])
		}
	}
	if s.hasMetrics && cycle&metricsFlushMask == 0 {
		s.flushMetrics()
	}
	if s.rec != nil && cycle%s.recEvery == 0 {
		s.recordTrace(chip)
	}
}

// surAgree is the stationarity test: a new calibration window agrees
// with the stored stats when the IPC delta and the L1 power-vector delta
// are both within surStableRelTol (with small absolute floors so exact
// zeros — a duty-0 drain, an idle FP unit — compare equal).
func surAgree(ipc, refIPC float64, pow, refPow []float64, extra, refExtra float64) bool {
	if math.Abs(ipc-refIPC) > surStableRelTol*math.Max(ipc, refIPC)+0.005 {
		return false
	}
	var d, n float64
	for i := range pow {
		d += math.Abs(pow[i] - refPow[i])
		n += math.Abs(refPow[i])
	}
	d += math.Abs(extra - refExtra)
	n += math.Abs(refExtra)
	return d <= surStableRelTol*n+1e-9
}

// surUpdate advances the calibration state machine at the end of one
// cycle-exact Step. Calibration windows are ASSEMBLED: each store entry
// carries a partial-window accumulator, and a stall, operating-point
// change or replay splice merely banks the open span into its entry
// (surPause) and switches (surResume). A feedback policy that dwells on
// an operating point in short bursts — a PI controller shuttling between
// the duty rail and fresh intermediate values every sample — therefore
// still completes windows for the points it keeps returning to; the
// fragments also average more of the workload's quasi-period than one
// contiguous span would. Each surWarmupCycles of accumulation completes
// one window, which doubles as the stationarity check (before the first
// validation) and the periodic audit (after a budget-forced
// invalidation).
//
// Validation is a pair-audit. The first window completed after a replay
// leg reflects the pipeline state frozen through the leg, so comparing
// it against the stored stats is self-confirming; it only refreshes the
// stats. The calibration revalidates on the NEXT window — two exact
// windows with real aging between them — and only if the trend gate
// shows that aging to be flat. A window that agrees with the stored
// stats folds into them (EWMA); one that disagrees replaces them and
// resets the slow-start budget, so the ladder restarts. The budget
// doubles only on a validation that audits an actual replay leg. All
// updates are in place — recalibration never allocates.
func (s *Sim) surUpdate(stalled bool) {
	key := s.curKey()
	if stalled || !s.surAccOK || key != s.surAccKey {
		s.surPause()
		s.surResume(key, stalled)
		return
	}
	s.surWarm++
	cal := s.surAccCal
	if cal == nil {
		if s.surWarm < surAllocMinSpan {
			return // not yet proven worth a store slot
		}
		if cal = s.surAlloc(key); cal == nil {
			return // store full: run this key cycle-exact
		}
		s.surAccCal = cal
	}
	if cal.warm+s.surWarm < surWarmupCycles {
		return
	}
	// One calibration window complete: bank the open span and compute
	// the window's statistics.
	s.surFold(cal)
	fw := float64(surWarmupCycles)
	win := s.surWinPow
	for i, p := range cal.acc {
		win[i] = p / fw
	}
	extra := cal.accExtra / fw
	ipc := float64(cal.accInsts) / fw

	// Record the window in the drift ring, stamped with the mid-window
	// age (the age coordinate ignores frozen replay legs, so the slope
	// below is per cycle of real pipeline aging).
	spliced := cal.splice
	cal.splice = false
	cal.hist[cal.histPos] = ipc
	cal.histAge[cal.histPos] = cal.ageC - 0.5*fw
	cal.histPos = (cal.histPos + 1) % surHistLen
	if cal.histN < surHistLen {
		cal.histN++
	}
	// Creep rate per exact cycle from the half-means of the ring, and
	// the replay budget it affords. Two baselines: the full ring (finest
	// rate resolution, but ~surHistLen windows of memory) and its newest
	// half (coarser but current). The larger budget wins: a phase whose
	// warm-up creep has just flattened should not stay blocked for as
	// long as the old ramp lingers in the ring, while ongoing creep
	// keeps BOTH estimates high and stays capped.
	maxB := cal.budgetFor(cal.histN)
	if cal.histN >= surHistLen/2 {
		// The half-ring baseline only once its halves hold enough
		// windows to average: on a quarter-full ring it is pure noise,
		// and a single upward spike buys a replay leg the true creep
		// rate cannot afford.
		if b := cal.budgetFor(cal.histN / 2); b > maxB {
			maxB = b
		}
	}
	if maxB >= surMinReplay {
		cal.trendRun++
	} else {
		cal.trendRun = 0
	}

	if cal.seeded && surAgree(ipc, cal.ipc, win, cal.power, extra, cal.extra) {
		// Within window noise: fold the fresh window into the stats.
		// The 1/4 weight averages ~7 windows, so quasi-periodic window
		// oscillation is smoothed out of the replayed stats instead of
		// tracked into them; the drift-ring budget cap bounds the extra
		// lag this adds under genuine slow creep.
		for i := range cal.power {
			cal.power[i] += 0.25 * (win[i] - cal.power[i])
		}
		cal.extra += 0.25 * (extra - cal.extra)
		cal.ipc += 0.25 * (ipc - cal.ipc)
		if (cal.histN < surHistMin || cal.trendRun < surTrendRun) && !cal.banked {
			// Creep too fast for any worthwhile leg (or not enough
			// history to tell): the pipeline must keep aging cycle-exact
			// — unless an independently calibrated bank donor vouches
			// for the point and this window reproduces it.
			if spliced || !s.bankAdopt(key, cal, win, extra, ipc) {
				// Restart the slow-start ladder.
				cal.valid = false
				cal.budget = surMinReplay
			}
		} else if spliced {
			// Pair-audit: this window cannot certify a frozen leg by
			// itself; the next one (with real aging in between) decides.
			cal.valid = false
		} else {
			cal.valid = true
			if cal.legSince {
				// A replay leg passed its audit: extend trust.
				cal.legSince = false
				if cal.budget < surMaxReplay {
					cal.budget *= 2
				}
			}
			if cal.histN >= surHistMin && cal.budget > maxB {
				// ... but never beyond what the creep rate affords. (A
				// bank-adopted calibration keeps the donor's budget
				// until its own ring can estimate a rate; for a native
				// calibration the trend gate above guarantees the ring
				// is full enough, so the extra fill check changes
				// nothing.)
				cal.budget = maxB
			}
			s.bankPublish(key, cal)
		}
	} else {
		// Cold start, a step change, or a changed phase: reseed, restart
		// the slow-start ladder, and require fresh agreement and a fresh
		// flat trend before replaying — unless the fresh window
		// reproduces a bank donor's stats, which substitutes for both.
		copy(cal.power, win)
		cal.extra = extra
		cal.ipc = ipc
		cal.valid = false
		cal.budget = surMinReplay
		cal.banked = false
		if !spliced {
			s.bankAdopt(key, cal, win, extra, ipc)
		}
	}
	cal.seeded = true
	cal.replayed = 0
	// Start the next window from fresh statistics.
	for i := range cal.acc {
		cal.acc[i] = 0
	}
	cal.accExtra = 0
	cal.accInsts = 0
	cal.warm = 0
}

// surAlloc carves a calibration-store slot for key from the preallocated
// pools, or returns nil when the store is full.
func (s *Sim) surAlloc(key surKey) *surCal {
	if len(s.surCals) == surMaxCals {
		return nil
	}
	idx := len(s.surCals)
	cal := &s.surPool[idx]
	nblk := len(s.surPowAcc)
	cal.power = s.surPoolPow[idx*nblk : (idx+1)*nblk]
	cal.acc = s.surPoolAcc[idx*nblk : (idx+1)*nblk]
	s.surCals = append(s.surCals, surEntry{key: key, cal: cal})
	return cal
}

// surFold banks the open span's accumulators into cal's partial window
// and resets the span.
func (s *Sim) surFold(cal *surCal) {
	for i, p := range s.surPowAcc {
		cal.acc[i] += p
		s.surPowAcc[i] = 0
	}
	cal.accExtra += s.surExtraAcc
	s.surExtraAcc = 0
	snap := s.core.Snapshot()
	cal.accInsts += snap.Committed - s.surSnap0.Committed
	s.surSnap0 = snap
	cal.warm += s.surWarm
	cal.ageC += float64(s.surWarm)
	s.surWarm = 0
}

// surPause banks the in-progress span into its calibration entry. A span
// at an operating point with no store slot earns one if it lasted long
// enough (surAllocMinSpan); otherwise it is dropped.
func (s *Sim) surPause() {
	if !s.surAccOK || s.surWarm == 0 {
		return
	}
	cal := s.surAccCal
	if cal == nil {
		if s.surWarm >= surAllocMinSpan {
			cal = s.surAlloc(s.surAccKey)
		}
		if cal == nil {
			s.surWarm = 0
			for i := range s.surPowAcc {
				s.surPowAcc[i] = 0
			}
			s.surExtraAcc = 0
			return
		}
	}
	s.surFold(cal)
}

// surResume points the span accumulators at key.
func (s *Sim) surResume(key surKey, stalled bool) {
	s.surAccKey = key
	s.surAccOK = !stalled
	s.surAccCal = s.lookup(key)
	s.surWarm = 0
	for i := range s.surPowAcc {
		s.surPowAcc[i] = 0
	}
	s.surExtraAcc = 0
	s.surSnap0 = s.core.Snapshot()
}

// calBank is a gang-shared store of fully validated calibrations, keyed by
// operating point. A gang steps on one goroutine, so the bank needs no
// locking; solo runs leave it nil and never touch it. Members publish a
// calibration when it passes a full audit and adopt a banked one when
// their own freshly completed exact window reproduces the donor's stats —
// substituting one independent cross-member audit for the donor's already
// earned history ring and trend run, so a class reaching an operating
// point another class has mapped skips the slow-start budget ladder.
type calBank struct {
	m    map[surKey]*bankCal
	nblk int
}

// bankCal is one published calibration: the donor's window stats plus the
// replay budget the donor had earned when it published.
type bankCal struct {
	power  []float64
	extra  float64
	ipc    float64
	budget uint64
}

func newCalBank(nblk int) *calBank {
	return &calBank{m: make(map[surKey]*bankCal), nblk: nblk}
}

// bankPublish records cal under key when the bank has no donor for it yet
// or cal's earned budget exceeds the stored donor's. Updates reuse the
// stored entry, so steady-state publishing is allocation-free.
func (s *Sim) bankPublish(key surKey, cal *surCal) {
	b := s.surBank
	if b == nil {
		return
	}
	bk := b.m[key]
	if bk == nil {
		bk = &bankCal{power: make([]float64, b.nblk)}
		b.m[key] = bk
	} else if cal.budget <= bk.budget {
		return
	}
	copy(bk.power, cal.power)
	bk.extra = cal.extra
	bk.ipc = cal.ipc
	bk.budget = cal.budget
}

// bankAdopt audits the just-completed exact window (win, extra, ipc)
// against the banked donor for key. On agreement the member adopts the
// donor's stats and budget: the adoption audit plays the role of the
// drift-ring trend gate, and replay legs still pair-audit exactly like a
// native calibration's. Returns false (leaving cal untouched) when there
// is no bank, no donor, or the window disagrees.
func (s *Sim) bankAdopt(key surKey, cal *surCal, win []float64, extra, ipc float64) bool {
	b := s.surBank
	if b == nil {
		return false
	}
	bk := b.m[key]
	if bk == nil || !surAgree(ipc, bk.ipc, win, bk.power, extra, bk.extra) {
		return false
	}
	copy(cal.power, bk.power)
	cal.extra = bk.extra
	cal.ipc = bk.ipc
	cal.valid = true
	cal.banked = true
	cal.seeded = true
	cal.budget = bk.budget
	cal.replayed = 0
	return true
}

// cloneSurrogateFrom rebuilds this member's surrogate state as an exact
// copy of src's, reusing the member's own preallocated pools so the clone
// shares no storage with the source. Used when a gang fork promotes a
// member to class leader: the new leader continues from the old leader's
// calibration store, span accumulators, and replay carry.
func (s *Sim) cloneSurrogateFrom(src *Sim) {
	s.surCals = s.surCals[:0]
	for i := range src.surCals {
		e := &src.surCals[i]
		cal := s.surAlloc(e.key)
		pow, acc := cal.power, cal.acc
		*cal = *e.cal
		cal.power, cal.acc = pow, acc
		copy(cal.power, e.cal.power)
		copy(cal.acc, e.cal.acc)
	}
	copy(s.surPowAcc, src.surPowAcc)
	s.surAccKey = src.surAccKey
	s.surAccOK = src.surAccOK
	// Re-resolve the active-span entry inside this member's own store:
	// src.surAccCal may be stale (it is only meaningful under surAccOK,
	// and surResume re-derives it), and it must never alias src's pools.
	s.surAccCal = s.lookup(s.surAccKey)
	s.surWarm = src.surWarm
	s.surExtraAcc = src.surExtraAcc
	s.surSnap0 = src.surSnap0
	s.surCarry = src.surCarry
	s.surBank = src.surBank
}
