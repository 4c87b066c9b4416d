package thermal

import (
	"testing"

	"repro/internal/floorplan"
)

func TestTileConfigBuilds(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		net := New(TileConfig(n))
		if got := net.NumBlocks(); got != n*int(floorplan.NumBlocks) {
			t.Fatalf("TileConfig(%d): %d blocks", n, got)
		}
	}
}

// Two-core energy-flows-downhill: a hot block in core 0 must warm the
// abutting block of core 1 purely through cross-core tangential coupling,
// and the warming must stay second-order — the multicore analogue of
// TestTangentialCouplingWarmsNeighbor.
func TestTileCrossCoreCouplingWarmsNeighbor(t *testing.T) {
	cfg := TileConfig(2)
	cfg.CycleTime = 50e-9
	n := New(cfg)
	iSrc, ok := n.Index(floorplan.TileID(0, floorplan.FPExec))
	if !ok {
		t.Fatal("no index for c0.fpexec")
	}
	iDst, ok := n.Index(floorplan.TileID(1, floorplan.IntExec))
	if !ok {
		t.Fatal("no index for c1.intexec")
	}
	n.SetTemp(iSrc, 112)
	zero := make([]float64, n.NumBlocks())
	// Sample mid-transient (250 us): by the time the source has fully
	// decayed to the sink, the neighbor has too and only rounding noise
	// remains.
	for s := 0; s < 5000; s++ {
		n.Step(zero)
	}
	if n.temps[iDst] <= 100.01 {
		t.Errorf("cross-core neighbor not warmed: %v", n.temps[iDst])
	}
	if n.temps[iDst] > 100.5 {
		t.Errorf("cross-core warming %v C unexpectedly large", n.temps[iDst]-100)
	}
	if n.temps[iDst] >= n.temps[iSrc] {
		t.Errorf("energy flowed uphill: dst %v >= src %v", n.temps[iDst], n.temps[iSrc])
	}
	// A block with no shared edge to core 0 (core 1's far-side FPExec in
	// the horizontal pair) must warm strictly less than the abutting one.
	iFar, _ := n.Index(floorplan.TileID(1, floorplan.FPExec))
	if n.temps[iFar] >= n.temps[iDst] {
		t.Errorf("far block %v warmed as much as abutting block %v", n.temps[iFar], n.temps[iDst])
	}
}
