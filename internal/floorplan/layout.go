package floorplan

import (
	"math"
	"sort"
)

// This file adds the geometric layer under the lumped model: a 2D
// floorplan of block rectangles from which physical adjacency (the
// Neighbors lists driving the tangential-resistance extension) is
// *derived* rather than asserted. The paper's areas come from an MIPS
// R10000 die photo; the rectangle placement below is the corresponding
// reconstruction, laid out so that derived adjacency matches the
// hand-written lists in Default().

// Rect is an axis-aligned rectangle in meters.
type Rect struct {
	X, Y, W, H float64
}

// overlap1D returns the overlap length of [a0,a1) and [b0,b1).
func overlap1D(a0, a1, b0, b1 float64) float64 {
	lo := math.Max(a0, b0)
	hi := math.Min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// SharedEdge returns the length of the boundary shared by two rectangles
// (0 when they do not abut). Rectangles sharing only a corner return 0.
func SharedEdge(a, b Rect) float64 {
	const eps = 1e-9
	// Vertical shared edge: a's right against b's left or vice versa.
	if math.Abs(a.X+a.W-b.X) < eps || math.Abs(b.X+b.W-a.X) < eps {
		return overlap1D(a.Y, a.Y+a.H, b.Y, b.Y+b.H)
	}
	// Horizontal shared edge.
	if math.Abs(a.Y+a.H-b.Y) < eps || math.Abs(b.Y+b.H-a.Y) < eps {
		return overlap1D(a.X, a.X+a.W, b.X, b.X+b.W)
	}
	return 0
}

// Layout is a placed floorplan.
type Layout struct {
	Rects map[BlockID]Rect
}

// DefaultLayout returns the reconstructed placement. The die strip is
// (5 mm x 7.9 mm of tracked structures); widths are 1 or 2 "columns" of
// 2.5 mm so every block's area matches Table 3 exactly.
//
//	y (mm)
//	8.2 ┌──────────────┐
//	    │    dcache    │   5.0 x 2.0
//	6.2 ├──────┬╌╌╌╌╌╌╌┤   (right of dcache's lower lip: routing/dead space)
//	    │ bpred│       │   2.5 x 1.4
//	4.8 ├──────┤  LSQ  │   LSQ 2.5 x 2.0
//	    │regfil│       │   2.5 x 1.0
//	3.8 ├──────┴───────┤
//	    │    window    │   5.0 x 1.8
//	2.0 ├──────┬───────┤
//	    │intexe│fpexec │   2.5 x 2.0 each
//	0.0 └──────┴───────┘
//
// The geometry is authoritative: Default()'s Neighbors lists equal
// Adjacency(0.5mm) of this placement (enforced by tests).
func DefaultLayout() Layout {
	const mm = 1e-3
	r := map[BlockID]Rect{
		// Bottom row: the two execution clusters side by side.
		IntExec: {X: 0, Y: 0, W: 2.5 * mm, H: 2.0 * mm},
		FPExec:  {X: 2.5 * mm, Y: 0, W: 2.5 * mm, H: 2.0 * mm},
		// The window spans the die width above the execution units.
		Window: {X: 0, Y: 2.0 * mm, W: 5.0 * mm, H: 1.8 * mm},
		// Register file and LSQ side by side above the window.
		RegFile: {X: 0, Y: 3.8 * mm, W: 2.5 * mm, H: 1.0 * mm},
		LSQ:     {X: 2.5 * mm, Y: 3.8 * mm, W: 2.5 * mm, H: 2.0 * mm},
		// The branch predictor above the register file.
		BPred: {X: 0, Y: 4.8 * mm, W: 2.5 * mm, H: 1.4 * mm},
		// The data cache caps the strip (the sliver right of bpred's
		// top, above the LSQ, is routing/dead space).
		DCache: {X: 0, Y: 6.2 * mm, W: 5.0 * mm, H: 2.0 * mm},
	}
	return Layout{Rects: r}
}

// Adjacency derives each block's neighbor list from shared boundary
// length: blocks are neighbors when they abut with a shared edge of at
// least minEdge meters. Lists are sorted for determinism.
func (l Layout) Adjacency(minEdge float64) map[BlockID][]BlockID {
	ids := make([]BlockID, 0, len(l.Rects))
	for id := range l.Rects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make(map[BlockID][]BlockID, len(ids))
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			if SharedEdge(l.Rects[a], l.Rects[b]) >= minEdge {
				out[a] = append(out[a], b)
			}
		}
	}
	return out
}
