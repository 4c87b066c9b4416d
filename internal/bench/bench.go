// Package bench is the benchmark registry: 18 synthetic proxies for the
// SPEC CPU2000 subset the paper simulates (Section 5.4, Tables 4-6), each a
// workload.Profile calibrated to land in the paper's four thermal
// categories (Table 5), plus the policy factory that builds each DTM
// configuration evaluated in Section 7.
//
// The proxies do not reproduce SPEC's computation — only the thermal
// envelope the experiments consume: instruction mix, ILP, branch
// predictability, memory locality, burstiness. Names are kept so rows in
// regenerated tables line up with the paper's.
package bench

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"

	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/floorplan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Category is a Table 5 thermal class.
type Category string

// Table 5 categories.
const (
	Extreme Category = "extreme"
	High    Category = "high"
	Medium  Category = "medium"
	Low     Category = "low"
)

// categories assigns each benchmark its intended class (Table 5
// reconstruction; the paper's own assignment is partially illegible, so
// the split follows the legible Table 4 descriptions: art is bursty with
// real emergencies; mesa/facerec/eon/vortex sit just under emergency for
// most of their run without entering it; the extreme tier sees sustained
// or bursty emergencies.
var categories = map[string]Category{
	"gcc": Extreme, "art": Extreme, "equake": Extreme,
	"mesa": High, "facerec": High, "eon": High, "vortex": High, "fma3d": High,
	"gzip": Medium, "wupwise": Medium, "parser": Medium, "perlbmk": Medium, "bzip2": Medium,
	"vpr": Low, "crafty": Low, "twolf": Low, "apsi": Low, "gap": Low,
}

// CategoryOf returns the benchmark's thermal class ("" if unknown).
func CategoryOf(name string) Category { return categories[name] }

// Names returns all benchmark names in the paper's table order.
func Names() []string {
	return []string{
		"gzip", "wupwise", "vpr", "gcc", "mesa", "art", "equake", "crafty",
		"facerec", "fma3d", "parser", "eon", "perlbmk", "gap", "vortex",
		"bzip2", "twolf", "apsi",
	}
}

// hotMix is a convenience: a mix that keeps the integer core, memory and
// branch units all busy.
func intMix(branchy float64) workload.Mix {
	return workload.Mix{
		IntALU: 42, IntMult: 2, Load: 22, Store: 10, Branch: branchy, Call: 1,
	}
}

func fpMix(fpShare float64) workload.Mix {
	return workload.Mix{
		IntALU: 20, FPALU: fpShare, FPMult: fpShare / 3, Load: 22, Store: 8,
		Branch: 8, Call: 0.5,
	}
}

// phase is a small helper for single-phase profiles.
func phase(mix workload.Mix, dep float64, loops, body, iters int,
	randFrac, bias float64, ws uint64, stream float64) workload.Phase {
	return workload.Phase{
		Insts:            4 << 20,
		Mix:              mix,
		DepMean:          dep,
		LoopIters:        iters,
		BodySize:         body,
		NumLoops:         loops,
		BranchRandomFrac: randFrac,
		BranchBias:       bias,
		WorkingSet:       ws,
		StreamFrac:       stream,
	}
}

// ByName returns one benchmark profile.
func ByName(name string) (workload.Profile, error) {
	var phases []workload.Phase
	switch name {
	case "gzip":
		// Medium: integer compression — decent but not extreme
		// activity, some stress, no emergencies.
		phases = []workload.Phase{phase(intMix(12), 2.35, 12, 48, 60, 0.30, 0.5, 512<<10, 0.5)}
	case "wupwise":
		// Medium: streaming FP with good ILP, brushes the stress band.
		phases = []workload.Phase{phase(fpMix(22), 7, 8, 56, 80, 0.06, 0.6, 2<<20, 0.85)}
	case "vpr":
		// Low: placement/routing — pointer-chasing, poor locality,
		// hard branches, low ILP; thermally cold.
		phases = []workload.Phase{phase(intMix(16), 2.5, 24, 40, 20, 0.4, 0.45, 4<<20, 0.15)}
	case "gcc":
		// Extreme: very high sustained integer activity with a large
		// code footprint and high window/bpred pressure.
		phases = []workload.Phase{phase(intMix(14), 10, 20, 64, 90, 0.04, 0.6, 96<<10, 0.8)}
	case "mesa":
		// The paper's signature case: sits above the stress level for
		// almost its entire run yet spends almost no time in actual
		// emergency.
		phases = []workload.Phase{phase(fpMix(12), 5.5, 10, 60, 100, 0.05, 0.55, 256<<10, 0.75)}
	case "art":
		// Extreme and bursty: cool scan phases alternating with hot
		// dense-compute bursts (Table 4: few stress cycles, but over
		// half of them are emergencies).
		cool := phase(fpMix(10), 3.0, 10, 44, 30, 0.25, 0.5, 4<<20, 0.3)
		cool.Insts = 1 << 20
		hot := phase(fpMix(30), 12, 4, 64, 200, 0.02, 0.7, 64<<10, 0.95)
		hot.Insts = 768 << 10
		phases = []workload.Phase{cool, hot}
	case "equake":
		// Extreme: FP earthquake simulation, streaming memory with
		// dense FP bursts.
		phases = []workload.Phase{phase(fpMix(26), 10, 8, 60, 120, 0.03, 0.6, 1<<20, 0.9)}
	case "crafty":
		// Low: branchy chess integer code with modest ILP.
		phases = []workload.Phase{phase(intMix(18), 2.2, 20, 44, 25, 0.4, 0.5, 2<<20, 0.3)}
	case "facerec":
		// High: FP image processing, long high-utilization stretches
		// just below emergency.
		phases = []workload.Phase{phase(fpMix(13), 5.0, 8, 56, 90, 0.04, 0.6, 512<<10, 0.8)}
	case "fma3d":
		// High: FP crash simulation.
		phases = []workload.Phase{phase(fpMix(21), 10, 12, 52, 70, 0.06, 0.55, 1<<20, 0.75)}
	case "parser":
		// Medium: integer parsing, mispredict-prone.
		phases = []workload.Phase{phase(intMix(16), 3.5, 16, 44, 40, 0.3, 0.5, 1<<20, 0.4)}
	case "eon":
		// High: C++ ray tracing; mixed int/FP held just under
		// emergency.
		phases = []workload.Phase{phase(fpMix(13), 5.0, 10, 56, 80, 0.04, 0.55, 384<<10, 0.7)}
	case "perlbmk":
		// Medium: interpreter; branchy with medium ILP.
		phases = []workload.Phase{phase(intMix(15), 3.2, 18, 48, 45, 0.25, 0.5, 1<<20, 0.4)}
	case "gap":
		// Low-medium: group theory integer workload.
		phases = []workload.Phase{phase(intMix(12), 3, 14, 44, 35, 0.25, 0.5, 2<<20, 0.4)}
	case "vortex":
		// High: object database; integer with high IPC and store
		// traffic, hovering below emergency.
		m := intMix(11)
		m.Store = 16
		phases = []workload.Phase{phase(m, 4.2, 12, 56, 85, 0.04, 0.6, 512<<10, 0.7)}
	case "bzip2":
		// Medium: compression; similar to gzip, lower ILP.
		phases = []workload.Phase{phase(intMix(13), 3.2, 12, 48, 50, 0.22, 0.5, 1<<20, 0.5)}
	case "twolf":
		// Low: place-and-route, poor locality and low ILP.
		phases = []workload.Phase{phase(intMix(15), 2.4, 22, 40, 22, 0.38, 0.45, 4<<20, 0.2)}
	case "apsi":
		// Low: FP meteorology at modest intensity.
		phases = []workload.Phase{phase(fpMix(9), 3, 14, 48, 35, 0.2, 0.5, 4<<20, 0.5)}
	default:
		return workload.Profile{}, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	return workload.Profile{
		Name:   name,
		Seed:   seedFor(name),
		Phases: phases,
	}, nil
}

// seedFor derives a stable per-benchmark seed from the name.
func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Paper operating points (see DESIGN.md "Reconstructed numeric constants").
const (
	// EmergencyTemp is the thermal-emergency threshold D.
	EmergencyTemp = 111.3
	// NonCTTrigger is the toggle1/M trigger (D - 1).
	NonCTTrigger = 110.3
	// PSetpoint / PSensorRange configure the P controller.
	PSetpoint, PSensorRange = 110.8, 0.5
	// PISetpoint / PISensorRange configure PI and PID (trigger D-0.4,
	// engagement within 0.2 of the setpoint).
	PISetpoint, PISensorRange = 111.1, 0.2
	// LowSetpoint is the alternative setpoint studied in Section 7.
	LowSetpoint = 110.6
	// PolicyDelaySamples is the hold time for fixed policies, in
	// controller samples.
	PolicyDelaySamples = 5
)

// BlockPlants returns one design plant per floorplan block: gain
// K = R*Papp (the block's own thermal resistance times its calibrated
// activity swing) and tau = the block's own RC, for the per-structure
// MultiCT refinement.
func BlockPlants() []control.Plant {
	samplePeriod := float64(dtm.DefaultSampleInterval) / 1.5e9
	var plants []control.Plant
	for _, b := range floorplan.Default() {
		plants = append(plants, control.Plant{
			K:     b.R * b.PeakPower * 0.9,
			Tau:   b.RC(),
			Delay: samplePeriod / 2,
		})
	}
	return plants
}

// Plant returns the controller design plant (Section 3.2): steady-state
// gain from fetch duty to hottest-block temperature, the longest block RC
// as tau, and half the sampling period as loop delay.
func Plant() control.Plant {
	var k, tau float64
	for _, b := range floorplan.Default() {
		if g := b.R * b.PeakPower * 0.9; g > k {
			k = g
		}
		if rc := b.RC(); rc > tau {
			tau = rc
		}
	}
	samplePeriod := float64(dtm.DefaultSampleInterval) / 1.5e9
	return control.Plant{K: k, Tau: tau, Delay: samplePeriod / 2}
}

// NewPolicy builds a named DTM policy at the paper's operating points.
// setpointOverride, when nonzero, replaces the controller setpoint (the
// Section 7 setpoint study).
func NewPolicy(name string, setpointOverride float64) (dtm.Policy, error) {
	sp := func(def float64) float64 {
		if setpointOverride != 0 {
			return setpointOverride
		}
		return def
	}
	ts := float64(dtm.DefaultSampleInterval) / 1.5e9
	plant := Plant()
	switch name {
	case "none":
		return dtm.NoDTM{}, nil
	case "toggle1":
		return dtm.NewToggle1(NonCTTrigger, PolicyDelaySamples), nil
	case "toggle2":
		return dtm.NewToggle2(NonCTTrigger, PolicyDelaySamples), nil
	case "M":
		return dtm.NewManual(NonCTTrigger, EmergencyTemp), nil
	case "throttle":
		return dtm.NewThrottle(NonCTTrigger, 1, PolicyDelaySamples), nil
	case "specctl":
		return dtm.NewSpecControl(NonCTTrigger, 1, PolicyDelaySamples), nil
	case "P":
		g, err := control.Tune(plant, control.Spec{Kind: control.KindP})
		if err != nil {
			return nil, err
		}
		return dtm.NewCT(control.KindP, control.NewPID(g, sp(PSetpoint), PSensorRange, ts)), nil
	case "PI":
		g, err := control.Tune(plant, control.Spec{Kind: control.KindPI})
		if err != nil {
			return nil, err
		}
		return dtm.NewCT(control.KindPI, control.NewPID(g, sp(PISetpoint), PISensorRange, ts)), nil
	case "PID":
		g, err := control.Tune(plant, control.Spec{Kind: control.KindPID})
		if err != nil {
			return nil, err
		}
		return dtm.NewCT(control.KindPID, control.NewPID(g, sp(PISetpoint), PISensorRange, ts)), nil
	case "mPI":
		return dtm.NewMultiCT(control.KindPI, BlockPlants(), sp(PISetpoint), PISensorRange, ts)
	case "mPID":
		return dtm.NewMultiCT(control.KindPID, BlockPlants(), sp(PISetpoint), PISensorRange, ts)
	default:
		return nil, fmt.Errorf("bench: unknown policy %q", name)
	}
}

// ApplyPolicy configures cfg for the named policy (including the scaling
// mechanisms, which are not Manager policies).
func ApplyPolicy(cfg *sim.Config, name string, setpointOverride float64) error {
	switch name {
	case "fscale":
		cfg.Scaling = dtm.NewFreqScaling(NonCTTrigger, 0.5, PolicyDelaySamples)
		return nil
	case "vfscale":
		cfg.Scaling = dtm.NewVoltageScaling(NonCTTrigger, 0.5, PolicyDelaySamples)
		return nil
	}
	p, err := NewPolicy(name, setpointOverride)
	if err != nil {
		return err
	}
	if _, ok := p.(dtm.NoDTM); ok {
		cfg.Manager = nil
		return nil
	}
	cfg.Manager = dtm.NewManager(p)
	return nil
}

// Policies returns the DTM policy names ApplyPolicy accepts.
func Policies() []string {
	return []string{
		"none", "toggle1", "toggle2", "M", "P", "PI", "PID", "mPI", "mPID",
		"throttle", "specctl", "fscale", "vfscale",
	}
}

// NewRun builds a ready-to-run configuration for a named benchmark under a
// named DTM policy at the paper's operating points. insts bounds the run
// length in committed instructions and must be positive.
func NewRun(benchmark, policy string, insts uint64) (sim.Config, error) {
	if insts == 0 {
		return sim.Config{}, fmt.Errorf("bench: insts must be positive")
	}
	prof, err := ByName(benchmark)
	if err != nil {
		return sim.Config{}, err
	}
	cfg := sim.Config{Workload: prof, MaxInsts: insts}
	if err := ApplyPolicy(&cfg, policy, 0); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}

// RunQuery is one /run request: benchmark, policy and instruction budget.
type RunQuery struct {
	Bench  string
	Policy string
	Insts  uint64
}

// ParseRun parses the bench, policy and insts parameters of a /run request
// and builds the run's configuration (NewRun). bench defaults to gcc,
// policy to PI and insts to defInsts.
func ParseRun(q url.Values, defInsts uint64) (RunQuery, sim.Config, error) {
	rq := RunQuery{Bench: q.Get("bench"), Policy: q.Get("policy"), Insts: defInsts}
	if rq.Bench == "" {
		rq.Bench = "gcc"
	}
	if rq.Policy == "" {
		rq.Policy = "PI"
	}
	var err error
	if rq.Insts, err = parseInsts(q, defInsts); err != nil {
		return RunQuery{}, sim.Config{}, err
	}
	cfg, err := NewRun(rq.Bench, rq.Policy, rq.Insts)
	if err != nil {
		return RunQuery{}, sim.Config{}, err
	}
	return rq, cfg, nil
}

// BatchQuery is one /batch request: a benchmark × policy grid at one
// instruction budget.
type BatchQuery struct {
	Benches  []string
	Policies []string
	Insts    uint64
}

// ParseBatch parses the benches, policies (comma-separated) and insts
// parameters of a /batch request. benches defaults to every benchmark,
// policies to defPolicies and insts to defInsts. It rejects an unknown
// benchmark or policy and a zero budget, so NewRun builds every cell of an
// accepted grid.
func ParseBatch(q url.Values, defPolicies []string, defInsts uint64) (BatchQuery, error) {
	bq := BatchQuery{Benches: Names(), Policies: defPolicies}
	if v := q.Get("benches"); v != "" {
		bq.Benches = strings.Split(v, ",")
	}
	if v := q.Get("policies"); v != "" {
		bq.Policies = strings.Split(v, ",")
	}
	var err error
	if bq.Insts, err = parseInsts(q, defInsts); err != nil {
		return BatchQuery{}, err
	}
	if bq.Insts == 0 {
		return BatchQuery{}, fmt.Errorf("bench: insts must be positive")
	}
	for _, b := range bq.Benches {
		if _, err := ByName(b); err != nil {
			return BatchQuery{}, err
		}
	}
	for _, p := range bq.Policies {
		if !slices.Contains(Policies(), p) {
			return BatchQuery{}, fmt.Errorf("bench: unknown policy %q", p)
		}
	}
	return bq, nil
}

// parseInsts reads a request's insts parameter, or def when it is absent.
func parseInsts(q url.Values, def uint64) (uint64, error) {
	v := q.Get("insts")
	if v == "" {
		return def, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad insts: %w", err)
	}
	return n, nil
}
