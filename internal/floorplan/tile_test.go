package floorplan

import (
	"reflect"
	"testing"
)

func TestTileOneMatchesDefault(t *testing.T) {
	if !reflect.DeepEqual(Tile(1), Default()) {
		t.Fatal("Tile(1) must be exactly the paper's single-core floorplan")
	}
}

func TestTileIDRoundTrip(t *testing.T) {
	for c := 0; c < 5; c++ {
		for _, b := range Blocks() {
			id := TileID(c, b)
			if CoreOf(id) != c || LocalOf(id) != b {
				t.Fatalf("TileID(%d,%v)=%v round-trips to core %d local %v",
					c, b, id, CoreOf(id), LocalOf(id))
			}
		}
	}
	if got := TileID(2, FPExec).String(); got != "c2.fpexec" {
		t.Errorf("tiled ID renders %q", got)
	}
}

// Block order must be core-major with the paper's order inside each core —
// the thermal network indexes blocks positionally, so sim code relies on
// index i meaning core i/NumBlocks, local block i%NumBlocks.
func TestTileBlockOrder(t *testing.T) {
	blocks := Tile(4)
	if len(blocks) != 4*int(NumBlocks) {
		t.Fatalf("Tile(4) has %d blocks", len(blocks))
	}
	for i, b := range blocks {
		c, local := i/int(NumBlocks), BlockID(i%int(NumBlocks))
		if b.ID != TileID(c, local) {
			t.Fatalf("block %d is %v, want %v", i, b.ID, TileID(c, local))
		}
		ref := Default()[local]
		if b.Area != ref.Area || b.PeakPower != ref.PeakPower || b.R != ref.R || b.C != ref.C {
			t.Errorf("block %v does not replicate %v's R/C/area/power", b.ID, local)
		}
	}
}

// Adjacency must be symmetric, including across core boundaries, and every
// cross-core pair must connect blocks of grid-adjacent cores.
func TestTileAdjacencySymmetric(t *testing.T) {
	for _, n := range []int{2, 4} {
		blocks := Tile(n)
		adj := make(map[BlockID]map[BlockID]bool, len(blocks))
		for _, b := range blocks {
			set := make(map[BlockID]bool, len(b.Neighbors))
			for _, nb := range b.Neighbors {
				set[nb] = true
			}
			adj[b.ID] = set
		}
		cross := 0
		cols := TileCols(n)
		for _, b := range blocks {
			for _, nb := range b.Neighbors {
				if !adj[nb][b.ID] {
					t.Fatalf("n=%d: %v lists %v but not vice versa", n, b.ID, nb)
				}
				ca, cb := CoreOf(b.ID), CoreOf(nb)
				if ca == cb {
					continue
				}
				cross++
				dx := ca%cols - cb%cols
				dy := ca/cols - cb/cols
				if dx*dx+dy*dy != 1 {
					t.Errorf("n=%d: cross-core edge %v-%v spans non-adjacent cores", n, b.ID, nb)
				}
			}
		}
		if cross == 0 {
			t.Errorf("n=%d: no cross-core adjacency derived", n)
		}
	}
}

// Specific cross-core abutments at the shared die edge must be present:
// horizontally, core 0's FPExec touches core 1's IntExec; vertically (in
// the 2x2 grid), core 0's DCache touches core 2's IntExec and FPExec.
func TestTileCrossCoreAbutments(t *testing.T) {
	has := func(blocks []Block, a, b BlockID) bool {
		for _, blk := range blocks {
			if blk.ID != a {
				continue
			}
			for _, nb := range blk.Neighbors {
				if nb == b {
					return true
				}
			}
		}
		return false
	}
	two := Tile(2)
	for _, pair := range [][2]BlockID{
		{TileID(0, FPExec), TileID(1, IntExec)},
		{TileID(0, Window), TileID(1, Window)},
		{TileID(0, LSQ), TileID(1, RegFile)},
		{TileID(0, DCache), TileID(1, DCache)},
	} {
		if !has(two, pair[0], pair[1]) {
			t.Errorf("Tile(2): missing horizontal abutment %v-%v", pair[0], pair[1])
		}
	}
	four := Tile(4)
	for _, pair := range [][2]BlockID{
		{TileID(0, DCache), TileID(2, IntExec)},
		{TileID(0, DCache), TileID(2, FPExec)},
		{TileID(1, DCache), TileID(3, IntExec)},
	} {
		if !has(four, pair[0], pair[1]) {
			t.Errorf("Tile(4): missing vertical abutment %v-%v", pair[0], pair[1])
		}
	}
}

// Every derived neighbor pair must produce a finite, positive Equation-4
// tangential resistance — the solver divides by it.
func TestTileTangentialResistancePositive(t *testing.T) {
	blocks := Tile(4)
	areas := make(map[BlockID]float64, len(blocks))
	for _, b := range blocks {
		areas[b.ID] = b.Area
	}
	for _, b := range blocks {
		for _, nb := range b.Neighbors {
			r := TangentialResistance(b.Area) + TangentialResistance(areas[nb])
			if !(r > 0) || r > 1e6 {
				t.Errorf("pair %v-%v: tangential series resistance %v", b.ID, nb, r)
			}
		}
	}
}

// The tiled layout geometry must validate against the tiled block set the
// same way DefaultLayout validates against Default().
func TestTileLayoutValidates(t *testing.T) {
	for _, n := range []int{1, 2, 4, 9} {
		if err := validate(TileLayout(n), Tile(n), 0.02); err != nil {
			t.Errorf("TileLayout(%d): %v", n, err)
		}
	}
}
