package sim

import (
	"math"
	"slices"

	"repro/internal/dtm"
	"repro/internal/thermal"
)

// thermAcct is the thermal accounting shared by the solo and multicore
// engines: it owns the RC network handle and the per-block temperature
// statistics, maximum and emergency/stress cycle counts, plus the
// any-block-above unions per block group and chip-wide. Groups are
// contiguous runs of gsize blocks — solo is one group of the floorplan's
// blocks, multicore one group per core.
//
// On the per-cycle Euler path the engine steps the network and calls
// observe. On the macro-stepped fast path a window accumulates each
// cycle's block power, and flush closes it with its mean power: it
// advances the network in closed form and reconstructs the per-cycle
// bookkeeping analytically. The window's schedule ends each window on the
// next cycle that must observe fresh temperatures.
type thermAcct struct {
	net        *thermal.Network
	emTh, stTh float64
	// temps holds the current block temperatures on the Euler path and
	// the window-start temperatures on the fast path.
	temps []float64
	// tempSum is each block's temperature summed over the tempN cycles
	// accounted so far; only the mean is reported (see finish).
	tempSum []float64
	tempN   uint64
	// blocks receives per-block MaxTemp and emergency/stress counts as
	// the run goes and AvgTemp at finish; names are the engine's.
	blocks           []BlockResult
	gsize            int
	groupEm, groupSt []uint64 // per-group any-block-above cycle counts
	chipEm, chipSt   uint64   // chip-wide any-block-above cycle counts

	// Fast path. win is the open window: the accounting's own, or, for a
	// plain gang member, the one its class shares among the members on
	// the same schedule (see gclass.adopt).
	fast      bool
	win       *window
	winTss    []float64 // flush scratch: per-block window steady states
	peekPower []float64 // current scratch: mean power of the open window
	peekTemps []float64 // current scratch: temperatures at this cycle
}

// schedule fixes where fast-path windows end: stride cycles after a
// window opens, clamped to the next multiple of every clamp interval and
// to maxCycles. Equal schedules end their windows on the same cycles.
type schedule struct {
	stride    uint64
	clamps    []uint64
	maxCycles uint64
}

// equal reports whether s and o end their windows on the same cycles.
func (s *schedule) equal(o *schedule) bool {
	return s.stride == o.stride && s.maxCycles == o.maxCycles && slices.Equal(s.clamps, o.clamps)
}

// nextLen returns the length of a window opened after cycle c: the
// stride, clamped so the window ends no later than the next multiple of
// every clamp interval and the cycle budget. The next boundary is always
// strictly ahead of c, so every window has at least one cycle.
func (s *schedule) nextLen(c uint64) uint64 {
	w := s.stride
	for _, iv := range s.clamps {
		if d := (c/iv+1)*iv - c; d < w {
			w = d
		}
	}
	if s.maxCycles > c {
		if d := s.maxCycles - c; d < w {
			w = d
		}
	}
	return max(w, 1)
}

// window is the open fast-path window of a schedule: the block energy
// accumulated over the cycles it has run so far.
type window struct {
	schedule
	n, left uint64    // length of the open window and cycles still to go
	acc     []float64 // accumulated block energy of the open window
	mean    []float64 // mean block power of the window last closed
}

// newWindow builds the schedule's window for nblk blocks, open from cycle 0.
func newWindow(sch schedule, nblk int) *window {
	w := &window{schedule: sch, acc: make([]float64, nblk), mean: make([]float64, nblk)}
	w.openAfter(0)
	return w
}

// clone deep-copies w, its open accumulation included.
func (w *window) clone() *window {
	c := *w
	c.acc = slices.Clone(w.acc)
	c.mean = make([]float64, len(w.mean))
	return &c
}

// openAfter opens the window that follows cycle c.
func (w *window) openAfter(c uint64) { w.n = w.nextLen(c); w.left = w.n }

// add accumulates one cycle's block power into the open window and
// reports whether that cycle ends it.
func (w *window) add(power []float64) bool {
	for i, p := range power {
		w.acc[i] += p
	}
	w.left--
	return w.left == 0
}

// elapsed returns how many cycles the open window has accumulated.
func (w *window) elapsed() uint64 { return w.n - w.left }

// close ends the open window after its elapsed cycles and returns their
// count and mean block power, valid until the next close. The
// accumulation restarts from zero; no window is open until openAfter.
// With nothing elapsed it returns 0 and nil.
func (w *window) close() (uint64, []float64) {
	k := w.elapsed()
	w.n, w.left = 0, 0
	if k == 0 {
		return 0, nil
	}
	fk := float64(k)
	for i, e := range w.acc {
		w.mean[i] = e / fk // accumulated energy -> mean window power
		w.acc[i] = 0
	}
	return k, w.mean
}

// newThermAcct builds the accounting for net's blocks, split into groups of
// gsize, writing per-block results into blocks. A stride above 1 selects
// the fast path, with its own window of the schedule opened at cycle 0.
func newThermAcct(net *thermal.Network, th Thresholds, blocks []BlockResult, gsize int, stride uint64, clamps []uint64, maxCycles uint64) thermAcct {
	nblk := net.NumBlocks()
	ng := nblk / gsize
	a := thermAcct{
		net:     net,
		emTh:    th.Emergency,
		stTh:    th.Stress,
		temps:   make([]float64, nblk),
		tempSum: make([]float64, nblk),
		blocks:  blocks,
		gsize:   gsize,
		groupEm: make([]uint64, ng),
		groupSt: make([]uint64, ng),
		fast:    stride > 1,
	}
	if a.fast {
		a.win = newWindow(schedule{stride: stride, clamps: clamps, maxCycles: maxCycles}, nblk)
		a.winTss = make([]float64, nblk)
		a.peekPower = make([]float64, nblk)
		a.peekTemps = make([]float64, nblk)
	}
	net.Temps(a.temps)
	return a
}

// windowClamps lists the intervals whose multiples must end a solo
// fast-path window because a controller decides on fresh temperatures
// there: DTM manager samples and scaling/hierarchy samples, without zeros
// or duplicates. Telemetry never clamps a window: observers read the open
// window (current), so they cannot move a window boundary.
func windowClamps(cfg *Config) []uint64 {
	var iv []uint64
	add := func(x uint64) {
		if x != 0 && !slices.Contains(iv, x) {
			iv = append(iv, x)
		}
	}
	if cfg.Manager != nil {
		add(cfg.Manager.Interval)
	}
	if cfg.Scaling != nil || cfg.Hierarchy != nil {
		add(dtm.DefaultSampleInterval)
	}
	return iv
}

// observe records one Euler cycle: it reads the network's temperatures
// and tallies the per-block statistics and the group and chip unions.
// Returns whether any block is above the emergency level.
func (a *thermAcct) observe() bool {
	a.net.Temps(a.temps)
	a.tempN++
	chipEm, chipSt := false, false
	for g := range a.groupEm {
		em, st := false, false
		for i := g * a.gsize; i < (g+1)*a.gsize; i++ {
			t := a.temps[i]
			a.tempSum[i] += t
			br := &a.blocks[i]
			if t > br.MaxTemp {
				br.MaxTemp = t
			}
			if t > a.emTh {
				br.EmergencyCycles++
				em = true
			}
			if t > a.stTh {
				br.StressCycles++
				st = true
			}
		}
		if em {
			a.groupEm[g]++
			chipEm = true
		}
		if st {
			a.groupSt[g]++
			chipSt = true
		}
	}
	if chipEm {
		a.chipEm++
	}
	if chipSt {
		a.chipSt++
	}
	return chipEm
}

// flush advances the network across a w-cycle window of mean block power
// mean with the closed-form exponential solution (lateral flows frozen at
// the window-start temperatures) at thermal-time scale invF per cycle, and
// reconstructs the per-cycle bookkeeping analytically. Within a
// constant-power window each block's trajectory T(k) = tss + (T0−tss)·q^k
// (k = 1..w) is monotone toward its steady state, so its temperature sum,
// extrema and above-threshold counts follow from the endpoints and one
// logarithm. Each block's above-set is a prefix (cooling) or a suffix
// (heating) of the window, so a group's union is min(longest prefix +
// longest suffix, w) over its blocks, and the chip union the same over all
// blocks. temps must still hold the window-start temperatures.
func (a *thermAcct) flush(mean []float64, w uint64, invF float64) {
	fw := float64(w)
	q1, qn, qsum := a.net.WindowCoef(w, invF)
	a.net.StepWindow(mean, w, invF, a.winTss)
	a.tempN += w

	var chipEmPre, chipEmSuf, chipStPre, chipStSuf uint64
	for g := range a.groupEm {
		var emPre, emSuf, stPre, stSuf uint64
		for i := g * a.gsize; i < (g+1)*a.gsize; i++ {
			tss := a.winTss[i]
			d0 := a.temps[i] - tss
			t1 := tss + d0*q1[i]
			tw := tss + d0*qn[i]
			a.tempSum[i] += tss*fw + d0*qsum[i]
			br := &a.blocks[i]
			hi := tw
			if t1 > tw {
				hi = t1
			}
			if hi > br.MaxTemp {
				br.MaxTemp = hi
			}
			lnq := invF * a.net.LogDecay(i)
			if n, prefix := windowAbove(tss, d0, lnq, w, a.emTh, t1, tw); n > 0 {
				br.EmergencyCycles += n
				if prefix {
					emPre = max(emPre, n)
				} else {
					emSuf = max(emSuf, n)
				}
			}
			if n, prefix := windowAbove(tss, d0, lnq, w, a.stTh, t1, tw); n > 0 {
				br.StressCycles += n
				if prefix {
					stPre = max(stPre, n)
				} else {
					stSuf = max(stSuf, n)
				}
			}
		}
		a.groupEm[g] += min(emPre+emSuf, w)
		a.groupSt[g] += min(stPre+stSuf, w)
		chipEmPre, chipEmSuf = max(chipEmPre, emPre), max(chipEmSuf, emSuf)
		chipStPre, chipStSuf = max(chipStPre, stPre), max(chipStSuf, stSuf)
	}
	a.chipEm += min(chipEmPre+chipEmSuf, w)
	a.chipSt += min(chipStPre+chipStSuf, w)
	a.net.Temps(a.temps)
}

// closeWindow closes the open window after its elapsed cycles and flushes
// their mean power; with nothing elapsed it does nothing.
func (a *thermAcct) closeWindow(invF float64) {
	if k, mean := a.win.close(); k > 0 {
		a.flush(mean, k, invF)
	}
}

// current returns the block temperatures at the last accounted cycle
// without closing the open window: the closed form flush applies, over the
// power accumulated so far, written into scratch, with the accumulation
// left as it was. With no open window (the Euler path, or a window that
// just closed) it returns temps. The slice is valid until the next call.
func (a *thermAcct) current(invF float64) []float64 {
	if !a.fast || a.win.elapsed() == 0 {
		return a.temps
	}
	k := a.win.elapsed()
	fk := float64(k)
	for i, e := range a.win.acc {
		a.peekPower[i] = e / fk
	}
	a.net.WindowTemps(a.peekTemps, a.peekPower, k, invF)
	return a.peekTemps
}

// finish closes a partially filled fast-path window, so every simulated
// cycle is accounted for, and fills the per-block mean temperatures. A
// shared window is closed by its class first (gclass.closeWindows), so
// here it has nothing elapsed.
func (a *thermAcct) finish(invF float64) {
	if a.fast {
		a.closeWindow(invF)
	}
	for i := range a.blocks {
		a.blocks[i].AvgTemp = mean(a.tempSum[i], a.tempN)
	}
}

// mean is sum/n, or 0 when n is 0: the same bits as stats.Running.Mean
// over the n samples that summed to sum, without the running variance
// update the hot loops would pay for and nothing reads.
func mean(sum float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// windowAbove counts the cycles k in [1..w] whose closed-form temperature
// tss + d0·exp(k·lnq) exceeds thr, and reports whether the above-set is a
// prefix (true: cooling, or the whole window) or a suffix (false:
// heating) of the window. t1 and tw are the precomputed endpoint
// temperatures; monotonicity makes the endpoint checks decisive, and the
// logarithmic crossing estimate is corrected with exact comparisons so
// float error in the solve cannot shift the count.
func windowAbove(tss, d0, lnq float64, w uint64, thr, t1, tw float64) (uint64, bool) {
	if t1 <= thr && tw <= thr {
		return 0, true
	}
	if t1 > thr && tw > thr {
		return w, true
	}
	above := func(k uint64) bool {
		return d0*math.Exp(float64(k)*lnq) > thr-tss
	}
	kf := math.Log((thr-tss)/d0) / lnq
	var c uint64
	switch {
	case !(kf > 1):
		c = 1
	case kf >= float64(w):
		c = w
	default:
		c = uint64(kf)
	}
	if d0 > 0 {
		// Cooling: the above-set is the prefix [1..c].
		for c > 0 && !above(c) {
			c--
		}
		for c < w && above(c+1) {
			c++
		}
		return c, true
	}
	// Heating: the above-set is the suffix [c..w].
	for c > 1 && above(c-1) {
		c--
	}
	for c <= w && !above(c) {
		c++
	}
	return w - c + 1, false
}
