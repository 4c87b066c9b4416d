package sim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/thermal"
)

// aboveRef is the brute-force reference for windowAbove: it enumerates
// k = 1..w of the closed-form trajectory tss + d0·exp(k·lnq) and returns
// the above-threshold count and whether the above-set is a prefix of the
// window (an empty or full set counts as a prefix). ok is false when the
// set is neither a prefix nor a suffix.
func aboveRef(tss, d0, lnq float64, w uint64, thr float64) (n uint64, prefix, ok bool) {
	first, last := uint64(0), uint64(0)
	for k := uint64(1); k <= w; k++ {
		if d0*math.Exp(float64(k)*lnq) > thr-tss {
			if n == 0 {
				first = k
			}
			last = k
			n++
		}
	}
	switch {
	case n == 0 || n == w:
		return n, true, true
	case first == 1:
		return n, true, last == n
	default:
		return n, false, last == w && first == w-n+1
	}
}

func TestWindowAboveMatchesEnumeration(t *testing.T) {
	const lnq = -1e-3 // per-cycle log decay: ~1000-cycle time constant
	// cross returns the threshold halfway between the trajectory's values
	// at cycles k and k+1, so the crossing falls exactly after cycle k.
	cross := func(tss, d0 float64, k uint64) float64 {
		tk := tss + d0*math.Exp(float64(k)*lnq)
		tk1 := tss + d0*math.Exp(float64(k+1)*lnq)
		return (tk + tk1) / 2
	}
	cases := []struct {
		name    string
		tss, d0 float64
		w       uint64
		thr     float64
		want    uint64
	}{
		{"cooling all above", 100, 20, 256, 110, 256},
		{"cooling all below", 100, 5, 256, 110, 0},
		{"cooling mid-window", 100, 20, 2000, cross(100, 20, 700), 700},
		{"cooling crosses after k=1", 100, 20, 256, cross(100, 20, 1), 1},
		{"cooling crosses after k=w-1", 100, 20, 256, cross(100, 20, 255), 255},
		{"cooling crosses before k=1", 100, 20, 256, cross(100, 20, 0), 0},
		{"cooling crosses at k=w", 100, 20, 256, cross(100, 20, 256), 256},
		{"heating all above", 120, -5, 256, 110, 256},
		{"heating all below", 100, -20, 256, 110, 0},
		{"heating mid-window", 120, -20, 2000, cross(120, -20, 700), 1300},
		{"heating crosses after k=1", 120, -20, 256, cross(120, -20, 1), 255},
		{"heating crosses after k=w-1", 120, -20, 256, cross(120, -20, 255), 1},
		{"heating crosses at k=w", 120, -20, 256, cross(120, -20, 256), 0},
		{"w=1 cooling above", 100, 20, 1, 110, 1},
		{"w=1 cooling below", 100, 20, 1, cross(100, 20, 0), 0},
		{"w=1 heating above", 120, -20, 1, cross(120, -20, 0), 1},
		{"w=1 heating below", 120, -20, 1, cross(120, -20, 1), 0},
		{"d0=0 above", 111, 0, 256, 110, 256},
		{"d0=0 below", 109, 0, 256, 110, 0},
		{"d0=0 at threshold", 110, 0, 256, 110, 0},
	}
	for _, c := range cases {
		t1 := c.tss + c.d0*math.Exp(lnq)
		tw := c.tss + c.d0*math.Exp(float64(c.w)*lnq)
		n, prefix := windowAbove(c.tss, c.d0, lnq, c.w, c.thr, t1, tw)
		rn, rprefix, ok := aboveRef(c.tss, c.d0, lnq, c.w, c.thr)
		if !ok {
			t.Fatalf("%s: reference above-set is not a window prefix or suffix", c.name)
		}
		if rn != c.want {
			t.Fatalf("%s: case is mis-built, enumeration counts %d cycles, want %d", c.name, rn, c.want)
		}
		if n != rn || prefix != rprefix {
			t.Errorf("%s: windowAbove = (%d, prefix=%t), enumeration = (%d, prefix=%t)",
				c.name, n, prefix, rn, rprefix)
		}
	}
}

// TestFlushMatchesEnumeration checks one closed-form window flush against
// per-cycle enumeration of the same closed-form trajectories: per-block
// emergency/stress counts, maxima and means, the per-group unions and the
// chip union, for dies of 1, 2 and 4 groups under random initial
// temperatures, steady states, window lengths and frequency factors.
func TestFlushMatchesEnumeration(t *testing.T) {
	gsize := int(floorplan.NumBlocks)
	rng := rand.New(rand.NewSource(7))
	// Coverage tallies: partially above blocks that cool (prefix) or
	// heat (suffix), and group/chip unions strictly larger than their
	// longest member's count (both a prefix and a suffix contribute).
	var partialPre, partialSuf, mixedGroup, mixedChip int
	for _, ng := range []int{1, 2, 4} {
		for trial := 0; trial < 100; trial++ {
			th := DefaultThresholds()
			th.Emergency = 105 + 10*rng.Float64()
			th.Stress = th.Emergency - 1
			tcfg := thermal.TileConfig(ng)
			tcfg.SinkTemp = th.SinkTemp
			net := thermal.New(tcfg)
			nblk := net.NumBlocks()
			// Near blocks start close to the thresholds and head for a
			// steady state across both, so long windows cross; the rest
			// stay clear (below, or above throughout). A sparse trial has
			// one near block per group, isolating prefix/suffix pairs
			// across groups; a dense one mixes them within groups.
			sparse := rng.Intn(3) != 0
			tss := make([]float64, nblk)
			for g := 0; g < ng; g++ {
				nearK := rng.Intn(gsize)
				for k := 0; k < gsize; k++ {
					i := g*gsize + k
					t0, ts := th.Emergency-3-15*rng.Float64(), th.Emergency-3-15*rng.Float64()
					switch r := rng.Float64(); {
					case (sparse && k == nearK || !sparse && r < 0.45) && rng.Intn(2) == 0:
						// Cooling from just above the emergency level.
						t0, ts = th.Emergency+1.5*rng.Float64(), th.Emergency-5-10*rng.Float64()
					case sparse && k == nearK, !sparse && r < 0.45:
						// Heating from just below the stress level.
						t0, ts = th.Stress-1.5*rng.Float64(), th.Emergency+5+10*rng.Float64()
					case !sparse && r < 0.5:
						t0, ts = th.Emergency+3+5*rng.Float64(), th.Emergency+3+5*rng.Float64()
					}
					net.SetTemp(i, t0)
					tss[i] = ts
				}
			}
			a := newThermAcct(net, th, make([]BlockResult, nblk), gsize, DefaultThermalStride, nil, 0)
			w := []uint64{1, 2, 256, 1 + uint64(rng.Intn(30000)), 10000 + uint64(rng.Intn(20000))}[rng.Intn(5)]
			invF := []float64{1, 1 / 0.7, 2}[rng.Intn(3)]
			for i := 0; i < nblk; i++ {
				p := (tss[i] - th.SinkTemp) / net.Block(i).R
				a.win.acc[i] = p * float64(w)
			}
			a.win.n, a.win.left = w, 0
			t0 := append([]float64(nil), a.temps...)

			a.closeWindow(invF)

			var chipEm, chipSt uint64
			groupEm := make([]uint64, ng)
			groupSt := make([]uint64, ng)
			blkEm := make([]uint64, nblk)
			blkSt := make([]uint64, nblk)
			sum := make([]float64, nblk)
			hi := make([]float64, nblk)
			for k := uint64(1); k <= w; k++ {
				anyEm, anySt := false, false
				for g := 0; g < ng; g++ {
					gEm, gSt := false, false
					for i := g * gsize; i < (g+1)*gsize; i++ {
						tss := a.winTss[i]
						d0 := t0[i] - tss
						dk := d0 * math.Exp(float64(k)*invF*net.LogDecay(i))
						tk := tss + dk
						sum[i] += tk
						if k == 1 || tk > hi[i] {
							hi[i] = tk
						}
						if dk > th.Emergency-tss {
							blkEm[i]++
							gEm = true
						}
						if dk > th.Stress-tss {
							blkSt[i]++
							gSt = true
						}
					}
					if gEm {
						groupEm[g]++
						anyEm = true
					}
					if gSt {
						groupSt[g]++
						anySt = true
					}
				}
				if anyEm {
					chipEm++
				}
				if anySt {
					chipSt++
				}
			}

			for i := 0; i < nblk; i++ {
				br := a.blocks[i]
				if br.EmergencyCycles != blkEm[i] || br.StressCycles != blkSt[i] {
					t.Fatalf("groups=%d trial %d w=%d block %d: emergency/stress = %d/%d, enumeration %d/%d",
						ng, trial, w, i, br.EmergencyCycles, br.StressCycles, blkEm[i], blkSt[i])
				}
				if math.Abs(br.MaxTemp-hi[i]) > 1e-9 {
					t.Fatalf("groups=%d trial %d block %d: max %.12f, enumeration %.12f", ng, trial, i, br.MaxTemp, hi[i])
				}
				if got, want := mean(a.tempSum[i], a.tempN), sum[i]/float64(w); math.Abs(got-want) > 1e-9 {
					t.Fatalf("groups=%d trial %d block %d: mean %.12f, enumeration %.12f", ng, trial, i, got, want)
				}
				for _, n := range []uint64{blkEm[i], blkSt[i]} {
					if n > 0 && n < w {
						if a.temps[i] < t0[i] {
							partialPre++
						} else {
							partialSuf++
						}
					}
				}
			}
			var chipMaxEm, chipMaxSt uint64
			for g := 0; g < ng; g++ {
				if a.groupEm[g] != groupEm[g] || a.groupSt[g] != groupSt[g] {
					t.Fatalf("groups=%d trial %d w=%d group %d: unions %d/%d, enumeration %d/%d",
						ng, trial, w, g, a.groupEm[g], a.groupSt[g], groupEm[g], groupSt[g])
				}
				var maxEm, maxSt uint64
				for i := g * gsize; i < (g+1)*gsize; i++ {
					maxEm, maxSt = max(maxEm, blkEm[i]), max(maxSt, blkSt[i])
				}
				if groupEm[g] > maxEm || groupSt[g] > maxSt {
					mixedGroup++
				}
				chipMaxEm, chipMaxSt = max(chipMaxEm, maxEm), max(chipMaxSt, maxSt)
			}
			if ng > 1 && (chipEm > chipMaxEm || chipSt > chipMaxSt) {
				mixedChip++
			}
			if a.chipEm != chipEm || a.chipSt != chipSt {
				t.Fatalf("groups=%d trial %d w=%d: chip unions %d/%d, enumeration %d/%d",
					ng, trial, w, a.chipEm, a.chipSt, chipEm, chipSt)
			}
		}
	}
	// Guard against a vacuous pass.
	if partialPre == 0 || partialSuf == 0 || mixedGroup == 0 || mixedChip == 0 {
		t.Fatalf("weak coverage: %d partial prefixes, %d partial suffixes, %d mixed group unions, %d mixed chip unions",
			partialPre, partialSuf, mixedGroup, mixedChip)
	}
	t.Logf("%d partial prefixes, %d partial suffixes, %d mixed group unions, %d mixed chip unions",
		partialPre, partialSuf, mixedGroup, mixedChip)
}
