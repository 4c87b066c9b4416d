// Package floorplan describes the physical layout abstraction behind the
// paper's localized thermal model (Section 4): the set of architectural
// blocks tracked per-structure, their die areas, and the derivation of
// lumped thermal resistances and capacitances from silicon material
// constants (Section 4.3).
//
// The paper derives areas from an MIPS R10000 die photo scaled two process
// generations to 0.18 um; the exact per-structure values used here are the
// reconstruction documented in DESIGN.md.
package floorplan

import (
	"fmt"
	"math"
)

// BlockID identifies one architectural block tracked by the thermal model.
type BlockID int

// The seven structures studied in the paper (Section 5.2) plus the
// whole-chip node used for package-level modeling.
const (
	LSQ BlockID = iota
	Window
	RegFile
	BPred
	DCache
	IntExec
	FPExec
	NumBlocks // number of per-structure blocks (excludes Chip)

	// Chip is the whole-die node used for the chip-wide package model
	// (heat spreader + heatsink, Table 3's final row).
	Chip BlockID = NumBlocks
)

var blockNames = [...]string{
	LSQ:     "LSQ",
	Window:  "window",
	RegFile: "regfile",
	BPred:   "bpred",
	DCache:  "dcache",
	IntExec: "intexec",
	FPExec:  "fpexec",
	Chip:    "chip",
}

// String returns the block's short name as used in the paper's tables.
// Tiled IDs (see Tile) render as "c<core>.<name>", e.g. "c2.fpexec".
func (b BlockID) String() string {
	if b >= 0 && int(b) < len(blockNames) {
		return blockNames[b]
	}
	if b >= CoreStride {
		local := LocalOf(b)
		if int(local) < len(blockNames) {
			return fmt.Sprintf("c%d.%s", CoreOf(b), blockNames[local])
		}
	}
	return fmt.Sprintf("block(%d)", int(b))
}

// Blocks returns the per-structure block IDs in table order.
func Blocks() []BlockID {
	ids := make([]BlockID, NumBlocks)
	for i := range ids {
		ids[i] = BlockID(i)
	}
	return ids
}

// Silicon material and geometry constants (Section 4.3). The paper assumes
// a thinned wafer of 0.1 mm and derives per-block values from published
// silicon data [12]; Rho/Cv below are the reconstruction that reproduces the
// legible Table 3 entries (see DESIGN.md).
const (
	// WaferThickness is the thinned die thickness t in meters.
	WaferThickness = 0.1e-3
	// SiliconResistivity rho is the effective thermal resistivity of the
	// die stack in m*K/W.
	SiliconResistivity = 0.01
	// SiliconVolumetricHeatCapacity cv in J/(m^3*K).
	SiliconVolumetricHeatCapacity = 1.75e6
)

// Block carries the physical parameters of one lumped node.
type Block struct {
	ID BlockID
	// Area is the block die area in m^2.
	Area float64
	// PeakPower is the calibrated Wattch peak power in W (Table 3).
	PeakPower float64
	// R is the normal (die-to-heatsink) thermal resistance in K/W.
	R float64
	// C is the thermal capacitance in J/K.
	C float64
	// Neighbors lists physically adjacent blocks (for the tangential
	// resistance extension, Figure 3B).
	Neighbors []BlockID
}

// RC returns the block thermal time constant in seconds.
func (b *Block) RC() float64 { return b.R * b.C }

// NormalResistance returns the first-principles normal thermal resistance
// R = rho*t/A for a block of the given area (Equation preceding Eq. 4).
func NormalResistance(area float64) float64 {
	return SiliconResistivity * WaferThickness / area
}

// Capacitance returns the first-principles thermal capacitance
// C = cv * t * A.
func Capacitance(area float64) float64 {
	return SiliconVolumetricHeatCapacity * WaferThickness * area
}

// TangentialResistance evaluates the paper's Equation 4: the lateral
// resistance for heat flowing uniformly and circularly outward from the
// center of a block of the given area through the die of thickness t,
// integrated from an inner radius r0 out to the block boundary:
//
//	R_tan = integral( rho/(2*pi*r*t) dr ) = rho/(2*pi*t) * ln(r1/r0)
//
// where r1 = sqrt(A/pi). The paper concludes R_tan is orders of magnitude
// larger than R_nor and ignores it in the simplified model (Figure 3C);
// thermal.Network supports it as an extension so that conclusion can be
// checked (BenchmarkAblationTangential).
func TangentialResistance(area float64) float64 {
	r1 := math.Sqrt(area / math.Pi)
	r0 := r1 / 100 // innermost 1% radius; the log keeps this insensitive
	return SiliconResistivity / (2 * math.Pi * WaferThickness) * math.Log(r1/r0)
}

// Default returns the reconstruction of Table 3: the seven per-structure
// blocks with their areas, calibrated peak powers and lumped R/C values,
// plus adjacency for the tangential extension. The Neighbors lists are the
// derived adjacency of DefaultLayout (layout_test enforces the match).
//
// R and C are stated explicitly (not recomputed from area) because the
// paper's table itself carries rounded per-structure values whose RC
// constants differ between blocks; the explicit values match the two
// legible entries (window 81 us, bpred 49 us) and keep every block in the
// "tens to hundreds of microseconds" regime the paper reports.
func Default() []Block {
	return []Block{
		{ID: LSQ, Area: 5.0e-6, PeakPower: 6.5, R: 2.00, C: 6.00e-5,
			Neighbors: []BlockID{Window, RegFile, BPred}},
		{ID: Window, Area: 9.0e-6, PeakPower: 11.0, R: 1.20, C: 6.75e-5,
			Neighbors: []BlockID{LSQ, RegFile, IntExec, FPExec}},
		{ID: RegFile, Area: 2.5e-6, PeakPower: 4.5, R: 3.00, C: 2.00e-5,
			Neighbors: []BlockID{Window, LSQ, BPred}},
		{ID: BPred, Area: 3.5e-6, PeakPower: 5.5, R: 2.45, C: 2.00e-5,
			Neighbors: []BlockID{RegFile, LSQ, DCache}},
		{ID: DCache, Area: 1.0e-5, PeakPower: 13.0, R: 1.00, C: 1.80e-4,
			Neighbors: []BlockID{BPred}},
		{ID: IntExec, Area: 5.0e-6, PeakPower: 6.8, R: 2.00, C: 5.00e-5,
			Neighbors: []BlockID{Window, FPExec}},
		{ID: FPExec, Area: 5.0e-6, PeakPower: 7.0, R: 2.00, C: 7.00e-5,
			Neighbors: []BlockID{Window, IntExec}},
	}
}

// ChipBlock returns the whole-chip node of Table 3's final row: package
// thermal resistance 0.34 K/W (Table 4 caption) and heatsink capacitance
// 60 J/K (Section 4.1), giving the ~minute-scale chip RC the paper cites.
func ChipBlock() Block {
	return Block{ID: Chip, Area: 3.0e-4, PeakPower: 55, R: 0.34, C: 60}
}
