// Package thermal implements the paper's lumped thermal-RC model
// (Section 4): one RC node per architectural block connected through its
// normal thermal resistance to a heatsink node that is held at constant
// temperature over short intervals, with optional tangential resistances
// between adjacent blocks (Figure 3B) and a slow chip-wide package node
// (heat spreader + heatsink) for long-horizon behaviour.
//
// The per-cycle update is the difference equation of Section 5.2
// (Equation 5):
//
//	T[k+1] = T[k] + dt * ( P[k] - (T[k] - Tsink)/R ) / C
//
// evaluated once per clock cycle with dt equal to the cycle time. Because
// the block time constants (49–180 us) are five orders of magnitude larger
// than the 0.667 ns cycle, forward Euler is numerically benign; the package
// also provides the exact exponential solution for validation and for
// advancing many cycles of constant power at once.
package thermal

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
)

// Config parameterizes a Network.
type Config struct {
	// Blocks is the set of lumped nodes; usually floorplan.Default().
	Blocks []floorplan.Block
	// SinkTemp is the heatsink temperature in Celsius, treated as
	// constant over the simulated interval (Section 4.3: the heatsink RC
	// is orders of magnitude larger than the block RCs).
	SinkTemp float64
	// CycleTime is dt in seconds (0.667 ns at the paper's 1.5 GHz).
	CycleTime float64
	// Tangential enables lateral heat flow between Neighbors through
	// floorplan.TangentialResistance (the Figure 3B model). The paper's
	// simplified model (Figure 3C) omits it.
	Tangential bool
}

// DefaultConfig returns the paper's reproduction configuration: the Table 3
// blocks, a 100 C heatsink and the 1.5 GHz cycle time.
func DefaultConfig() Config {
	return Config{
		Blocks:    floorplan.Default(),
		SinkTemp:  100.0,
		CycleTime: 1.0 / 1.5e9,
	}
}

// TileConfig returns the configuration for an n-core die built from
// floorplan.Tile(n): n replicas of the Table 3 blocks with lateral
// tangential coupling always enabled, so heat flows across core boundaries
// through the same Equation-4 resistances as within a core. TileConfig(1)
// is DefaultConfig with Tangential on — the multicore family is uniform in
// its physics even at one core.
func TileConfig(n int) Config {
	return Config{
		Blocks:     floorplan.Tile(n),
		SinkTemp:   100.0,
		CycleTime:  1.0 / 1.5e9,
		Tangential: true,
	}
}

// Network is the lumped per-block RC model. All temperatures are Celsius.
// Per-block state is held in structure-of-arrays form so both the
// per-cycle Euler step and the macro-stepped window advance stream through
// flat float64 slices.
type Network struct {
	cfg   Config
	temps []float64
	rInv  []float64 // 1/R per block
	cInv  []float64 // 1/C per block
	r     []float64 // R per block (steady-state gain)
	la    []float64 // log1p(-dt/(R·C)): per-step log decay

	adj     [][]int // neighbor indices (tangential only)
	gTan    [][]float64
	scratch []float64 // pre-step temperatures / frozen flows (tangential only)

	idx    map[floorplan.BlockID]int
	blocks []floorplan.Block

	// Cached window-decay coefficient tables for the macro-stepped fast
	// path, recomputed when the (window length, steps-per-cycle) pair
	// changes — i.e. on stride clamping or frequency-scaling changes.
	winW    uint64
	winInvF float64
	winQ1   []float64 // per-cycle decay exp(invF·la)
	winQn   []float64 // whole-window decay exp(w·invF·la)
	winSum  []float64 // Σ_{k=1..w} Q1^k (analytic temperature sum)
	peekQn  []float64 // WindowTemps scratch: whole-window decay, uncached
}

// New builds a Network from cfg. It panics on an empty block set or a
// non-positive cycle time, which are always configuration errors.
func New(cfg Config) *Network {
	if len(cfg.Blocks) == 0 {
		panic("thermal: no blocks configured")
	}
	if cfg.CycleTime <= 0 {
		panic(fmt.Sprintf("thermal: invalid cycle time %g", cfg.CycleTime))
	}
	nb := len(cfg.Blocks)
	n := &Network{
		cfg:    cfg,
		temps:  make([]float64, nb),
		rInv:   make([]float64, nb),
		cInv:   make([]float64, nb),
		r:      make([]float64, nb),
		la:     make([]float64, nb),
		winQ1:  make([]float64, nb),
		winQn:  make([]float64, nb),
		winSum: make([]float64, nb),
		peekQn: make([]float64, nb),
		idx:    make(map[floorplan.BlockID]int, nb),
		blocks: append([]floorplan.Block(nil), cfg.Blocks...),
	}
	for i, b := range n.blocks {
		if b.R <= 0 || b.C <= 0 {
			panic(fmt.Sprintf("thermal: block %v has non-positive R or C", b.ID))
		}
		n.idx[b.ID] = i
		n.temps[i] = cfg.SinkTemp
		n.rInv[i] = 1 / b.R
		n.cInv[i] = 1 / b.C
		n.r[i] = b.R
		// log1p keeps full precision for a = dt/(R·C) ~ 1e-5, so the
		// window decay (1-a)^(w·invF) matches the compounded Euler
		// factor instead of the continuous exp(-t/RC) (the two agree
		// to ~a/2 relative, but the Euler form is what the per-cycle
		// path integrates).
		n.la[i] = math.Log1p(-cfg.CycleTime * n.rInv[i] * n.cInv[i])
	}
	if cfg.Tangential {
		n.adj = make([][]int, len(n.blocks))
		n.gTan = make([][]float64, len(n.blocks))
		n.scratch = make([]float64, len(n.blocks))
		for i, b := range n.blocks {
			for _, nb := range b.Neighbors {
				j, ok := n.idx[nb]
				if !ok {
					continue // neighbor not modeled in this network
				}
				// Tangential conductance between the two block
				// centers: series combination of each block's
				// lateral resistance.
				rt := floorplan.TangentialResistance(b.Area) +
					floorplan.TangentialResistance(n.blocks[j].Area)
				n.adj[i] = append(n.adj[i], j)
				n.gTan[i] = append(n.gTan[i], 1/rt)
			}
		}
	}
	return n
}

// NumBlocks returns the number of modeled nodes.
func (n *Network) NumBlocks() int { return len(n.blocks) }

// Block returns the physical parameters of node i.
func (n *Network) Block(i int) floorplan.Block { return n.blocks[i] }

// Index returns the node index for a block ID and whether it is modeled.
func (n *Network) Index(id floorplan.BlockID) (int, bool) {
	i, ok := n.idx[id]
	return i, ok
}

// SetSinkTemp changes the heatsink temperature (used when coupling to the
// slow chip-wide model).
func (n *Network) SetSinkTemp(t float64) { n.cfg.SinkTemp = t }

// Temps copies all node temperatures into dst (allocating if nil) and
// returns it.
func (n *Network) Temps(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(n.temps))
	}
	copy(dst, n.temps)
	return dst
}

// SetTemp overrides node i's temperature (testing and checkpoint restore).
func (n *Network) SetTemp(i int, t float64) { n.temps[i] = t }

// Step advances the network by one cycle given per-node power in watts.
// len(power) must equal NumBlocks.
func (n *Network) Step(power []float64) {
	if len(power) != len(n.temps) {
		panic(fmt.Sprintf("thermal: Step with %d powers for %d blocks", len(power), len(n.temps)))
	}
	dt := n.cfg.CycleTime
	sink := n.cfg.SinkTemp
	if n.adj == nil {
		for i, t := range n.temps {
			flow := power[i] - (t-sink)*n.rInv[i]
			n.temps[i] = t + dt*flow*n.cInv[i]
		}
		return
	}
	// Tangential variant: evaluate lateral flows against the pre-step
	// temperatures so the update stays symmetric.
	prev := n.scratch
	copy(prev, n.temps)
	for i, t := range prev {
		flow := power[i] - (t-sink)*n.rInv[i]
		for k, j := range n.adj[i] {
			flow -= (t - prev[j]) * n.gTan[i][k]
		}
		n.temps[i] = t + dt*flow*n.cInv[i]
	}
}

// StepN advances the network by cycles cycles of *constant* per-node power
// using the exact exponential solution per node:
//
//	T(t) = Tss + (T0 - Tss) * exp(-t/RC),  Tss = Tsink + P*R
//
// It ignores tangential coupling (exact only for the Figure 3C model) and
// is used to fast-forward warm-up or idle periods.
func (n *Network) StepN(power []float64, cycles uint64) {
	if len(power) != len(n.temps) {
		panic(fmt.Sprintf("thermal: StepN with %d powers for %d blocks", len(power), len(n.temps)))
	}
	t := n.cfg.CycleTime * float64(cycles)
	for i := range n.temps {
		tss := n.cfg.SinkTemp + power[i]*n.blocks[i].R
		k := math.Exp(-t / (n.blocks[i].R * n.blocks[i].C))
		n.temps[i] = tss + (n.temps[i]-tss)*k
	}
}

// WindowCoef returns the per-block decay coefficient tables for a window
// of w cycles advanced at invF unit thermal steps per cycle:
//
//	q1[i]  = (1-a_i)^invF        (one cycle's decay)
//	qn[i]  = (1-a_i)^(w·invF)    (the whole window's decay)
//	sum[i] = Σ_{k=1..w} q1[i]^k  (geometric sum for analytic averaging)
//
// with a_i = dt/(R_i·C_i). The tables are cached and only recomputed when
// (w, invF) differs from the previous call — window lengths are sticky
// between DTM/trace boundary clamps, so the steady state costs a compare.
func (n *Network) WindowCoef(w uint64, invF float64) (q1, qn, sum []float64) {
	if n.winW != w || n.winInvF != invF {
		n.winW, n.winInvF = w, invF
		fw := float64(w)
		for i, l := range n.la {
			e1 := math.Exp(invF * l)
			en := math.Exp(fw * invF * l)
			n.winQ1[i] = e1
			n.winQn[i] = en
			// Geometric series q+q²+…+q^w = q(1-q^w)/(1-q); the
			// denominator is ~invF·a_i, far from cancellation.
			n.winSum[i] = e1 * (1 - en) / (1 - e1)
		}
	}
	return n.winQ1, n.winQn, n.winSum
}

// LogDecay returns log(1-a_i) for block i — the per-unit-step log decay
// used by callers solving for threshold-crossing cycles analytically.
func (n *Network) LogDecay(i int) float64 { return n.la[i] }

// StepWindow advances every node by w cycles at invF unit thermal steps
// per cycle under constant per-node power, using the closed form of the
// compounded per-cycle update:
//
//	T(w) = Tss + (T(0) - Tss)·(1-a)^(w·invF),  Tss = Tsink + P·R
//
// which is exact for constant power in the Figure 3C (no-tangential)
// model. With tangential coupling enabled, lateral flows are frozen at
// their window-start values and folded into each node's effective power —
// a first-order approximation whose error is bounded by the window length
// relative to the block time constants (w·dt ≪ R·C).
//
// tssOut, when non-nil, receives each node's effective steady-state
// target for the window, which callers need for analytic within-window
// bookkeeping (the trajectory moves monotonically from T(0) toward
// tssOut[i], so envelope checks at the endpoints are exact).
func (n *Network) StepWindow(power []float64, w uint64, invF float64, tssOut []float64) {
	_, qn, _ := n.WindowCoef(w, invF)
	n.windowInto(n.temps, power, qn, tssOut)
}

// WindowTemps writes into dst the temperatures StepWindow(power, w, invF,
// nil) would reach, bit for bit, without advancing the network or touching
// its cached coefficient tables: a read of a window still open.
func (n *Network) WindowTemps(dst, power []float64, w uint64, invF float64) {
	fw := float64(w)
	for i, l := range n.la {
		n.peekQn[i] = math.Exp(fw * invF * l) // WindowCoef's qn
	}
	n.windowInto(dst, power, n.peekQn, nil)
}

// windowInto is the window closed form behind StepWindow and WindowTemps:
// it writes into dst each node's temperature after a window of whole-window
// decay qn under power, starting from the network's temperatures. dst may
// be the network's own temperatures.
func (n *Network) windowInto(dst, power, qn, tssOut []float64) {
	if len(power) != len(n.temps) {
		panic(fmt.Sprintf("thermal: window with %d powers for %d blocks", len(power), len(n.temps)))
	}
	sink := n.cfg.SinkTemp
	if n.adj != nil {
		// Freeze lateral flows at window-start temperatures.
		flows := n.scratch
		for i, t := range n.temps {
			f := 0.0
			for k, j := range n.adj[i] {
				f -= (t - n.temps[j]) * n.gTan[i][k]
			}
			flows[i] = f
		}
		for i, t := range n.temps {
			tss := sink + (power[i]+flows[i])*n.r[i]
			dst[i] = tss + (t-tss)*qn[i]
			if tssOut != nil {
				tssOut[i] = tss
			}
		}
		return
	}
	for i, t := range n.temps {
		tss := sink + power[i]*n.r[i]
		dst[i] = tss + (t-tss)*qn[i]
		if tssOut != nil {
			tssOut[i] = tss
		}
	}
}

// Hottest returns the index and temperature of the hottest node.
func (n *Network) Hottest() (idx int, temp float64) {
	temp = math.Inf(-1)
	for i, t := range n.temps {
		if t > temp {
			idx, temp = i, t
		}
	}
	return idx, temp
}

// AnyAbove reports whether any node exceeds the threshold.
func (n *Network) AnyAbove(threshold float64) bool {
	for _, t := range n.temps {
		if t > threshold {
			return true
		}
	}
	return false
}

// SteadyState returns the steady-state temperature of node i under constant
// power p: Tsink + p*R.
func (n *Network) SteadyState(i int, p float64) float64 {
	return n.cfg.SinkTemp + p*n.blocks[i].R
}

// TimeConstant returns node i's RC constant in seconds.
func (n *Network) TimeConstant(i int) float64 {
	return n.blocks[i].R * n.blocks[i].C
}

// LongestTimeConstant returns the largest block RC in seconds — the tau the
// paper feeds into controller tuning ("we used the longest time constant of
// the various blocks under study", Section 3.2).
func (n *Network) LongestTimeConstant() float64 {
	var tau float64
	for i := range n.blocks {
		if rc := n.TimeConstant(i); rc > tau {
			tau = rc
		}
	}
	return tau
}

// StepResponse returns the analytic single-node step response
// T(t) = Tsink + P*R*(1 - exp(-t/RC)) starting from the sink temperature,
// for validating the numerical integration.
func StepResponse(b floorplan.Block, sink, p, t float64) float64 {
	return sink + p*b.R*(1-math.Exp(-t/(b.R*b.C)))
}

// ChipModel is the whole-chip package node of Section 4.1: total chip power
// flowing through the die-to-case and heatsink resistances into ambient,
// with the heatsink capacitance giving a time constant of tens of seconds.
// It models the slow drift of the per-block model's "constant" heatsink
// temperature and reproduces the paper's back-of-envelope example
// (25 W * 2 K/W + 27 C = 77 C, tau ~ 1 minute).
type ChipModel struct {
	// R is the total thermal resistance junction-to-ambient in K/W.
	R float64
	// C is the package/heatsink thermal capacitance in J/K.
	C float64
	// Ambient is the ambient temperature in Celsius.
	Ambient float64
	// T is the current chip temperature in Celsius.
	T float64
}

// NewChipModel returns the chip node initialized to ambient.
func NewChipModel(r, c, ambient float64) *ChipModel {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("thermal: invalid chip model R=%g C=%g", r, c))
	}
	return &ChipModel{R: r, C: c, Ambient: ambient, T: ambient}
}

// Step advances the chip node by dt seconds under total power p watts.
func (m *ChipModel) Step(p, dt float64) {
	tss := m.Ambient + p*m.R
	m.T = tss + (m.T-tss)*math.Exp(-dt/(m.R*m.C))
}

// SteadyState returns the chip steady-state temperature under power p.
func (m *ChipModel) SteadyState(p float64) float64 { return m.Ambient + p*m.R }

// TimeConstant returns the package RC in seconds.
func (m *ChipModel) TimeConstant() float64 { return m.R * m.C }
