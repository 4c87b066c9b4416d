package sim

import (
	"math"
	"slices"

	"repro/internal/dtm"
	"repro/internal/stats"
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
// observe. On the macro-stepped fast path it feeds each cycle's block
// power to add and closes every window with flush, which advances the
// network in closed form and reconstructs the per-cycle bookkeeping
// analytically; nextWindowLen schedules the windows so each one ends on
// the next cycle that must observe fresh temperatures.
type thermAcct struct {
	net        *thermal.Network
	emTh, stTh float64
	// temps holds the current block temperatures on the Euler path and
	// the window-start temperatures on the fast path.
	temps     []float64
	blockTemp []stats.Running
	// blocks receives per-block MaxTemp and emergency/stress counts as
	// the run goes and AvgTemp at finish; names are the engine's.
	blocks           []BlockResult
	gsize            int
	groupEm, groupSt []uint64 // per-group any-block-above cycle counts
	chipEm, chipSt   uint64   // chip-wide any-block-above cycle counts

	// Fast path. The window length is the stride clamped to the next
	// multiple of every clamp interval and to maxCycles.
	fast            bool
	stride          uint64
	clamps          []uint64
	maxCycles       uint64
	winLen, winLeft uint64
	powerAcc        []float64 // accumulated block energy of the open window
	winTss          []float64 // flush scratch: per-block window steady states
}

// newThermAcct builds the accounting for net's blocks, split into groups of
// gsize, writing per-block results into blocks. A stride above 1 selects
// the fast path; the engine opens the first window.
func newThermAcct(net *thermal.Network, th Thresholds, blocks []BlockResult, gsize int, stride uint64, clamps []uint64, maxCycles uint64) thermAcct {
	nblk := net.NumBlocks()
	ng := nblk / gsize
	a := thermAcct{
		net:       net,
		emTh:      th.Emergency,
		stTh:      th.Stress,
		temps:     make([]float64, nblk),
		blockTemp: make([]stats.Running, nblk),
		blocks:    blocks,
		gsize:     gsize,
		groupEm:   make([]uint64, ng),
		groupSt:   make([]uint64, ng),
		fast:      stride > 1,
		stride:    stride,
		clamps:    clamps,
		maxCycles: maxCycles,
	}
	if a.fast {
		a.powerAcc = make([]float64, nblk)
		a.winTss = make([]float64, nblk)
	}
	net.Temps(a.temps)
	return a
}

// windowClamps lists the intervals whose multiples must end a solo
// fast-path window because something observes fresh temperatures there:
// DTM manager samples, scaling/hierarchy samples, the telemetry timing
// stride (which also aligns the coarser metrics flushes) and structured
// trace samples, without zeros or duplicates.
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
	if cfg.Metrics != nil {
		add(thermalTimeMask + 1)
	}
	if cfg.Trace != nil {
		add(traceEvery(cfg))
	}
	return iv
}

// observe records one Euler cycle: it reads the network's temperatures
// and tallies the per-block statistics and the group and chip unions.
// Returns whether any block is above the emergency level.
func (a *thermAcct) observe() bool {
	a.net.Temps(a.temps)
	chipEm, chipSt := false, false
	for g := range a.groupEm {
		em, st := false, false
		for i := g * a.gsize; i < (g+1)*a.gsize; i++ {
			t := a.temps[i]
			a.blockTemp[i].Add(t)
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

// open starts a fast-path window of w cycles.
func (a *thermAcct) open(w uint64) { a.winLen, a.winLeft = w, w }

// add accumulates one cycle's block power into the open window and
// reports whether that cycle ends it.
func (a *thermAcct) add(power []float64) bool {
	for i, p := range power {
		a.powerAcc[i] += p
	}
	a.winLeft--
	return a.winLeft == 0
}

// nextWindowLen returns the length of a window opened after cycle c: the
// stride, clamped so the window ends no later than the next multiple of
// every clamp interval and the cycle budget. The next boundary is always
// strictly ahead of c, so every window has at least one cycle.
func (a *thermAcct) nextWindowLen(c uint64) uint64 {
	w := a.stride
	for _, iv := range a.clamps {
		if d := (c/iv+1)*iv - c; d < w {
			w = d
		}
	}
	if a.maxCycles > c {
		if d := a.maxCycles - c; d < w {
			w = d
		}
	}
	return max(w, 1)
}

// flush advances the network across a w-cycle window of the accumulated
// power with the closed-form exponential solution (lateral flows frozen at
// the window-start temperatures) at thermal-time scale invF per cycle, and
// reconstructs the per-cycle bookkeeping analytically. Within a
// constant-power window each block's trajectory T(k) = tss + (T0−tss)·q^k
// (k = 1..w) is monotone toward its steady state, so its temperature sum,
// extrema and above-threshold counts follow from the endpoints and one
// logarithm. Each block's above-set is a prefix (cooling) or a suffix
// (heating) of the window, so a group's union is min(longest prefix +
// longest suffix, w) over its blocks, and the chip union the same over all
// blocks. temps must still hold the window-start temperatures.
func (a *thermAcct) flush(w uint64, invF float64) {
	acc := a.powerAcc
	fw := float64(w)
	for i := range acc {
		acc[i] /= fw // accumulated energy -> mean window power
	}
	q1, qn, qsum := a.net.WindowCoef(w, invF)
	a.net.StepWindow(acc, w, invF, a.winTss)

	var chipEmPre, chipEmSuf, chipStPre, chipStSuf uint64
	for g := range a.groupEm {
		var emPre, emSuf, stPre, stSuf uint64
		for i := g * a.gsize; i < (g+1)*a.gsize; i++ {
			tss := a.winTss[i]
			d0 := a.temps[i] - tss
			t1 := tss + d0*q1[i]
			tw := tss + d0*qn[i]
			lo, hi := t1, tw
			if lo > hi {
				lo, hi = hi, lo
			}
			a.blockTemp[i].AddSpan(w, tss*fw+d0*qsum[i], lo, hi)
			br := &a.blocks[i]
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
			acc[i] = 0
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

// finish closes a partially filled fast-path window, so every simulated
// cycle is accounted for, and fills the per-block mean temperatures.
// Returns the partial window's length (0 when there was none).
func (a *thermAcct) finish(invF float64) uint64 {
	elapsed := a.winLen - a.winLeft
	if elapsed > 0 {
		a.flush(elapsed, invF)
	}
	for i := range a.blocks {
		a.blocks[i].AvgTemp = a.blockTemp[i].Mean()
	}
	return elapsed
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
