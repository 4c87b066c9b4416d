package floorplan

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

func TestBlockNames(t *testing.T) {
	want := map[BlockID]string{
		LSQ: "LSQ", Window: "window", RegFile: "regfile", BPred: "bpred",
		DCache: "dcache", IntExec: "intexec", FPExec: "fpexec", Chip: "chip",
	}
	for id, name := range want {
		if id.String() != name {
			t.Errorf("%d.String() = %q, want %q", id, id.String(), name)
		}
	}
	if got := BlockID(99).String(); got != "c12.bpred" {
		t.Errorf("tiled block name = %q, want c12.bpred", got)
	}
	if got := BlockID(-3).String(); got != "block(-3)" {
		t.Errorf("unknown block name = %q", got)
	}
}

func TestBlocksOrder(t *testing.T) {
	bs := Blocks()
	if len(bs) != int(NumBlocks) {
		t.Fatalf("Blocks() len = %d, want %d", len(bs), NumBlocks)
	}
	for i, b := range bs {
		if int(b) != i {
			t.Errorf("Blocks()[%d] = %v", i, b)
		}
	}
}

func TestDefaultTableValues(t *testing.T) {
	bs := Default()
	if len(bs) != int(NumBlocks) {
		t.Fatalf("Default() has %d blocks, want %d", len(bs), NumBlocks)
	}
	// The two legible Table 3 RC entries must be matched exactly.
	rc := map[BlockID]float64{Window: 81e-6, BPred: 49e-6}
	for _, b := range bs {
		if want, ok := rc[b.ID]; ok {
			if got := b.RC(); math.Abs(got-want) > 1e-9 {
				t.Errorf("%v RC = %v, want %v", b.ID, got, want)
			}
		}
		// Every block in the tens-to-hundreds-of-microseconds regime.
		if got := b.RC(); got < 10e-6 || got > 1e-3 {
			t.Errorf("%v RC = %v outside [10us, 1ms]", b.ID, got)
		}
		if b.Area <= 0 || b.PeakPower <= 0 || b.R <= 0 || b.C <= 0 {
			t.Errorf("%v has non-positive parameters: %+v", b.ID, b)
		}
	}
}

func TestDefaultNeighborsSymmetric(t *testing.T) {
	bs := Default()
	adj := make(map[BlockID]map[BlockID]bool)
	for _, b := range bs {
		adj[b.ID] = make(map[BlockID]bool)
		for _, nb := range b.Neighbors {
			adj[b.ID][nb] = true
		}
	}
	for _, b := range bs {
		for _, nb := range b.Neighbors {
			if !adj[nb][b.ID] {
				t.Errorf("adjacency not symmetric: %v->%v", b.ID, nb)
			}
		}
	}
}

func TestChipBlock(t *testing.T) {
	c := ChipBlock()
	if c.R != 0.34 || c.C != 60 {
		t.Errorf("chip R/C = %v/%v, want 0.34/60", c.R, c.C)
	}
	// The paper's Section 4.1 sanity check: ~minute-scale time constant.
	if rc := c.RC(); rc < 10 || rc > 60 {
		t.Errorf("chip RC = %v s, want tens of seconds", rc)
	}
}

func TestNormalResistanceScalesInverselyWithArea(t *testing.T) {
	r1 := NormalResistance(1e-6)
	r2 := NormalResistance(2e-6)
	if math.Abs(r1/r2-2) > 1e-12 {
		t.Errorf("R(A)/R(2A) = %v, want 2", r1/r2)
	}
	// rho*t/A with the package constants.
	want := SiliconResistivity * WaferThickness / 1e-6
	if math.Abs(r1-want) > 1e-12 {
		t.Errorf("R(1e-6) = %v, want %v", r1, want)
	}
}

func TestCapacitanceScalesWithArea(t *testing.T) {
	c1 := Capacitance(1e-6)
	c2 := Capacitance(3e-6)
	if math.Abs(c2/c1-3) > 1e-12 {
		t.Errorf("C(3A)/C(A) = %v, want 3", c2/c1)
	}
}

// Section 4.3's conclusion: the tangential resistance is orders of magnitude
// larger than the normal resistance for every modeled block, so lateral
// coupling is ignorable to first order.
func TestTangentialDominatesNormal(t *testing.T) {
	for _, b := range Default() {
		rt := TangentialResistance(b.Area)
		if rt < 10*b.R {
			t.Errorf("%v: Rtan=%v not >> Rnor=%v", b.ID, rt, b.R)
		}
	}
}

// TestFirstPrinciplesConsistent: R and C derived purely from a block's
// area give RC = rho*cv*t^2, whatever the area.
func TestFirstPrinciplesConsistent(t *testing.T) {
	want := SiliconResistivity * SiliconVolumetricHeatCapacity *
		WaferThickness * WaferThickness
	for _, b := range Default() {
		b.R, b.C = NormalResistance(b.Area), Capacitance(b.Area)
		if math.Abs(b.RC()-want) > 1e-12 {
			t.Errorf("%v first-principles RC = %v, want %v", b.ID, b.RC(), want)
		}
	}
}

func TestDefaultLayoutValidates(t *testing.T) {
	l := DefaultLayout()
	if err := validate(l, Default(), 0.01); err != nil {
		t.Fatal(err)
	}
}

// The adjacency derived from the placed rectangles must match the
// hand-written Neighbors lists used by the thermal model.
func TestLayoutAdjacencyMatchesNeighbors(t *testing.T) {
	adj := DefaultLayout().Adjacency(0.5e-3)
	for _, b := range Default() {
		want := map[BlockID]bool{}
		for _, nb := range b.Neighbors {
			want[nb] = true
		}
		got := map[BlockID]bool{}
		for _, nb := range adj[b.ID] {
			got[nb] = true
		}
		for nb := range want {
			if !got[nb] {
				t.Errorf("%v: layout lacks neighbor %v", b.ID, nb)
			}
		}
		for nb := range got {
			if !want[nb] {
				t.Errorf("%v: layout has extra neighbor %v", b.ID, nb)
			}
		}
	}
}

func TestSharedEdgeGeometry(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 1, H: 1}
	b := Rect{X: 1, Y: 0.5, W: 1, H: 1} // abuts on the right, half overlap
	if got := SharedEdge(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("shared edge = %v, want 0.5", got)
	}
	c := Rect{X: 1, Y: 1, W: 1, H: 1} // corner only
	if got := SharedEdge(a, c); got != 0 {
		t.Errorf("corner contact shared edge = %v, want 0", got)
	}
	d := Rect{X: 5, Y: 5, W: 1, H: 1} // disjoint
	if got := SharedEdge(a, d); got != 0 {
		t.Errorf("disjoint shared edge = %v", got)
	}
	e := Rect{X: 0.2, Y: 1, W: 0.5, H: 1} // abuts on top
	if got := SharedEdge(a, e); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("top shared edge = %v, want 0.5", got)
	}
}

func TestLayoutValidateCatchesDefects(t *testing.T) {
	l := DefaultLayout()
	// Remove a block.
	delete(l.Rects, LSQ)
	if err := validate(l, Default(), 0.01); err == nil {
		t.Error("missing rectangle accepted")
	}
	// Wrong area.
	l = DefaultLayout()
	r := l.Rects[LSQ]
	r.W *= 2
	l.Rects[LSQ] = r
	if err := validate(l, Default(), 0.01); err == nil {
		t.Error("wrong-area rectangle accepted")
	}
	// Overlap.
	l = DefaultLayout()
	r = l.Rects[LSQ]
	r.X = l.Rects[RegFile].X
	r.Y = l.Rects[RegFile].Y
	l.Rects[LSQ] = r
	if err := validate(l, Default(), 0.5); err == nil {
		t.Error("overlapping rectangles accepted")
	}
}

// validate checks layout l for overlaps and area consistency against the
// given block set (areas must match within tol fractionally).
func validate(l Layout, blocks []Block, tol float64) error {
	for _, b := range blocks {
		r, ok := l.Rects[b.ID]
		if !ok {
			return fmt.Errorf("floorplan: no rectangle for %v", b.ID)
		}
		if r.W <= 0 || r.H <= 0 {
			return fmt.Errorf("floorplan: degenerate rectangle for %v", b.ID)
		}
		if a := r.W * r.H; math.Abs(a-b.Area) > tol*b.Area {
			return fmt.Errorf("floorplan: %v area %.3e != table %.3e", b.ID, a, b.Area)
		}
	}
	// Pairwise overlap check.
	ids := make([]BlockID, 0, len(l.Rects))
	for id := range l.Rects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			ra, rb := l.Rects[a], l.Rects[b]
			ox := overlap1D(ra.X, ra.X+ra.W, rb.X, rb.X+rb.W)
			oy := overlap1D(ra.Y, ra.Y+ra.H, rb.Y, rb.Y+rb.H)
			if ox > 1e-9 && oy > 1e-9 {
				return fmt.Errorf("floorplan: %v overlaps %v", a, b)
			}
		}
	}
	return nil
}
