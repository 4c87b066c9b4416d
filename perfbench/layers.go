package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/bench"
	"repro/internal/dtm"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/thermal"
	"repro/internal/workload"
)

// Traced-run sizes. Each sim stage is timed over recordCycles recorded
// cycles, stageReps times, and the median pass is reported.
const (
	recordCycles = 100_000
	stageReps    = 5
	mcInsts      = 20_000 // per-core budget of the multicore step timing
)

// Representative configurations: the stage split runs a fast-path PI run
// and a per-cycle Euler run (the power-proxy tables), and the gang timing
// a hot and a cool benchmark's setpoint grid, as the sweep runs them.
const (
	stageBench = "gcc"
	hotBench   = "gcc"
	coolBench  = "gap"
)

// recSource records the instruction stream a core pulls from the
// generator: every correct-path and wrong-path op, and the call order.
type recSource struct {
	gen   *workload.Generator
	ops   []isa.MicroOp
	wps   []isa.MicroOp
	calls []genCall
}

type genCall struct {
	wrong bool
	pc    uint64
}

func (r *recSource) Next() isa.MicroOp {
	op := r.gen.Next()
	r.ops = append(r.ops, op)
	r.calls = append(r.calls, genCall{})
	return op
}

func (r *recSource) PeekPC() uint64 { return r.gen.PeekPC() }

func (r *recSource) WrongPath(pc uint64) isa.MicroOp {
	op := r.gen.WrongPath(pc)
	r.wps = append(r.wps, op)
	r.calls = append(r.calls, genCall{wrong: true, pc: pc})
	return op
}

// replaySource feeds a core the recorded stream, so timing the core
// leaves out instruction generation.
type replaySource struct {
	ops, wps []isa.MicroOp
	i, j     int
}

func (r *replaySource) Next() isa.MicroOp {
	op := r.ops[r.i]
	r.i++
	return op
}

func (r *replaySource) PeekPC() uint64 { return r.ops[r.i].PC }

func (r *replaySource) WrongPath(uint64) isa.MicroOp {
	op := r.wps[r.j]
	r.j++
	return op
}

// actuation is one DTM decision applied to the core after a cycle.
type actuation struct {
	cycle uint64
	a     dtm.Actuation
}

// window is one fast-path thermal window: mean block power and length.
type window struct {
	power []float64
	len   uint64
}

// recording is every stage's input for recordCycles cycles of one
// configuration, captured by running the stages in the simulator's order.
type recording struct {
	src       *recSource
	acts      []pipeline.Activity
	powers    [][]float64 // per cycle, per block
	windows   []window
	samples   [][]float64 // temperatures at each DTM sample
	sampleCyc []uint64
	actuate   []actuation
	committed uint64
}

func newCore(src workload.Source) (*pipeline.Core, error) {
	return pipeline.New(pipeline.DefaultConfig(), src)
}

func newPowerModel() (*power.Model, error) {
	cfg := power.DefaultConfig()
	cfg.Pipeline = pipeline.DefaultConfig()
	return power.New(cfg)
}

func newNetwork() *thermal.Network {
	cfg := thermal.DefaultConfig()
	cfg.SinkTemp = sim.DefaultThresholds().SinkTemp
	return thermal.New(cfg)
}

func newManager(policy string) (*dtm.Manager, error) {
	var cfg sim.Config
	if err := bench.ApplyPolicy(&cfg, policy, 0); err != nil {
		return nil, err
	}
	return cfg.Manager, nil
}

// record runs generator, core, power model, fast-path thermal windows and
// DTM sampling in the simulator's order, keeping every stage's inputs.
// Windows end every sim.DefaultThermalStride cycles and at every DTM
// sample boundary, as the simulator's fast path clamps them.
func record(benchName, policy string) (*recording, error) {
	prof, err := bench.ByName(benchName)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(prof)
	if err != nil {
		return nil, err
	}
	rec := &recording{src: &recSource{gen: gen}}
	core, err := newCore(rec.src)
	if err != nil {
		return nil, err
	}
	pm, err := newPowerModel()
	if err != nil {
		return nil, err
	}
	net := newNetwork()
	mgr, err := newManager(policy)
	if err != nil {
		return nil, err
	}
	nb := net.NumBlocks()
	acc := make([]float64, nb)
	tss := make([]float64, nb)
	temps := net.Temps(make([]float64, nb))
	var act pipeline.Activity
	var winStart uint64
	interval := uint64(dtm.DefaultSampleInterval)
	for c := uint64(1); c <= recordCycles; c++ {
		core.Step(&act)
		rec.acts = append(rec.acts, act)
		pv := make([]float64, nb)
		pm.BlockPower(&act, pv)
		pm.ChipPower(&act, pv)
		rec.powers = append(rec.powers, pv)
		for i, p := range pv {
			acc[i] += p
		}
		if c-winStart == sim.DefaultThermalStride || c%interval == 0 {
			w := c - winStart
			mean := make([]float64, nb)
			for i := range acc {
				mean[i] = acc[i] / float64(w)
				acc[i] = 0
			}
			rec.windows = append(rec.windows, window{mean, w})
			net.WindowCoef(w, 1)
			net.StepWindow(mean, w, 1, tss)
			net.Temps(temps)
			winStart = c
		}
		if mgr != nil && c%interval == 0 {
			rec.samples = append(rec.samples, append([]float64(nil), temps...))
			rec.sampleCyc = append(rec.sampleCyc, c)
			a, _ := mgr.StepActuation(c, temps)
			applyActuation(core, a)
			rec.actuate = append(rec.actuate, actuation{c, a})
		}
	}
	rec.committed = core.Stats().Committed
	// Pad the stream so a replayed core may peek past the last op it took.
	for range 256 {
		rec.src.ops = append(rec.src.ops, gen.Next())
	}
	return rec, nil
}

func applyActuation(core *pipeline.Core, a dtm.Actuation) {
	core.SetFetchDuty(a.FetchDuty)
	core.SetFetchLimit(a.FetchLimit)
	core.SetMaxUnresolvedBranches(a.MaxUnresolved)
}

// medianNs builds a fresh stage with prepare (untimed), times the loop it
// returns, stageReps times, and reports the median pass divided by per,
// in nanoseconds of thread CPU time.
func medianNs(tr *tracer, name string, per int, prepare func() (func(), error)) (float64, error) {
	var xs []float64
	for range stageReps {
		loop, err := prepare()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		d := cpuTimed(tr, name, loop)
		xs = append(xs, float64(d.Nanoseconds())/float64(per))
	}
	return median(xs), nil
}

// cpuTimed runs f inside a span and returns the CPU time the calling
// thread spent in it. Unlike the span's wall time, it leaves out the time
// the virtual machine's host gave the core to other guests.
func cpuTimed(tr *tracer, name string, f func()) time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	tr.timed(name, f)
	return threadCPU() - c0
}

// threadCPU is the calling thread's CPU time, read from
// CLOCK_THREAD_CPUTIME_ID, which (unlike getrusage) is current to the
// nanosecond for a running thread.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// stageSplit is the per-cycle cost of each sim stage, timed alone on
// recorded inputs, against the whole simulated cycle.
type stageSplit struct {
	nextNs, opsPerCycle float64
	pipeNs, ipc         float64
	powerNs             float64
	windowNs, windowLen float64
	eulerNs             float64
	dtmNs, samples      float64
	simNs, eulerSimNs   float64
	sumNs, glueNs       float64
}

func splitStages(tr *tracer, benchName, policy string) (*stageSplit, error) {
	id := tr.begin("sim.stages/" + benchName + "/" + policy)
	defer tr.end(id)
	var rec *recording
	var err error
	tr.timed("record", func() { rec, err = record(benchName, policy) })
	if err != nil {
		return nil, err
	}
	st := &stageSplit{}
	cycles := float64(recordCycles)
	calls := rec.src.calls
	st.opsPerCycle = float64(len(calls)) / cycles

	prof, _ := bench.ByName(benchName)
	st.nextNs, err = medianNs(tr, "workload.Generator.Next", len(calls), func() (func(), error) {
		gen, err := workload.NewGenerator(prof)
		return func() {
			for _, c := range calls {
				if c.wrong {
					gen.WrongPath(c.pc)
				} else {
					gen.Next()
				}
			}
		}, err
	})
	if err != nil {
		return nil, err
	}

	var core *pipeline.Core
	st.pipeNs, err = medianNs(tr, "pipeline.Core.Step", recordCycles, func() (func(), error) {
		var err error
		core, err = newCore(&replaySource{ops: rec.src.ops, wps: rec.src.wps})
		return func() {
			var act pipeline.Activity
			k := 0
			for c := uint64(1); c <= recordCycles; c++ {
				core.Step(&act)
				if k < len(rec.actuate) && rec.actuate[k].cycle == c {
					applyActuation(core, rec.actuate[k].a)
					k++
				}
			}
		}, err
	})
	if err != nil {
		return nil, err
	}
	if got := core.Stats().Committed; got != rec.committed {
		return nil, fmt.Errorf("pipeline replay committed %d ops, the recording %d", got, rec.committed)
	}
	st.ipc = core.Stats().IPC()

	st.powerNs, err = medianNs(tr, "power.Model.BlockPower+ChipPower", recordCycles, func() (func(), error) {
		pm, err := newPowerModel()
		if err != nil {
			return nil, err
		}
		pv := make([]float64, pm.NumBlocks())
		return func() {
			for i := range rec.acts {
				pm.BlockPower(&rec.acts[i], pv)
				pm.ChipPower(&rec.acts[i], pv)
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}

	st.windowLen = cycles / float64(len(rec.windows))
	st.windowNs, _ = medianNs(tr, "thermal.Network.StepWindow", len(rec.windows), func() (func(), error) {
		net := newNetwork()
		tss := make([]float64, net.NumBlocks())
		return func() {
			for _, w := range rec.windows {
				net.WindowCoef(w.len, 1)
				net.StepWindow(w.power, w.len, 1, tss)
			}
		}, nil
	})
	st.eulerNs, _ = medianNs(tr, "thermal.Network.Step", recordCycles, func() (func(), error) {
		net := newNetwork()
		temps := make([]float64, net.NumBlocks())
		return func() {
			for _, p := range rec.powers {
				net.Step(p)
				net.Temps(temps)
			}
		}, nil
	})

	st.samples = float64(len(rec.samples))
	if len(rec.samples) > 0 {
		st.dtmNs, err = medianNs(tr, "dtm.Manager.StepActuation", len(rec.samples), func() (func(), error) {
			mgr, err := newManager(policy)
			return func() {
				for i, t := range rec.samples {
					mgr.StepActuation(rec.sampleCyc[i], t)
				}
			}, err
		})
		if err != nil {
			return nil, err
		}
	}

	st.simNs, err = timeSim(tr, "sim.Sim.Step", benchName, policy, nil)
	if err != nil {
		return nil, err
	}
	st.eulerSimNs, err = timeSim(tr, "sim.Sim.Step/euler-proxies", benchName, "none", []int{10_000, 500_000})
	if err != nil {
		return nil, err
	}
	st.sumNs = st.nextNs*st.opsPerCycle + st.pipeNs + st.powerNs +
		st.windowNs/st.windowLen + st.dtmNs*st.samples/cycles
	st.glueNs = st.simNs - st.sumNs
	return st, nil
}

// timeSim times recordCycles whole-cycle sim.Sim.Step calls.
func timeSim(tr *tracer, name, benchName, policy string, proxies []int) (float64, error) {
	prof, err := bench.ByName(benchName)
	if err != nil {
		return 0, err
	}
	return medianNs(tr, name, recordCycles, func() (func(), error) {
		cfg := sim.Config{Workload: prof, MaxInsts: 1 << 40, ProxyWindows: proxies}
		if err := bench.ApplyPolicy(&cfg, policy, 0); err != nil {
			return nil, err
		}
		s, err := sim.New(cfg)
		return func() {
			for range recordCycles {
				s.Step()
			}
		}, err
	})
}

// gangPass is the sharing one set of gangs achieved.
type gangPass struct {
	classCycles, memberCycles uint64
	forks, merges             int
	cpu                       time.Duration
	results                   []*sim.Result
}

func (g *gangPass) occupancy() float64 {
	if g.classCycles == 0 {
		return 0
	}
	return float64(g.memberCycles) / float64(g.classCycles)
}

// runGang runs one sweep grid as cmd/sweep does: the baseline plus every
// grid point as one lock-step gang.
func runGang(tr *tracer, c sweepCmd, insts uint64, g *gangPass) error {
	prof, err := bench.ByName(c.bench)
	if err != nil {
		return err
	}
	cfgs := []sim.Config{{Workload: prof, MaxInsts: insts}}
	switch c.param {
	case "setpoint":
		for _, sp := range []float64{110.3, 110.6, 110.9, 111.0, 111.1, 111.2} {
			cfg := sim.Config{Workload: prof, MaxInsts: insts}
			if err := bench.ApplyPolicy(&cfg, c.policy, sp); err != nil {
				return err
			}
			cfgs = append(cfgs, cfg)
		}
	case "trigger":
		for _, t := range []float64{109.3, 109.8, 110.3, 110.8, 111.0, 111.2} {
			cfgs = append(cfgs, sim.Config{Workload: prof, MaxInsts: insts,
				Manager: dtm.NewManager(dtm.NewToggle1(t, bench.PolicyDelaySamples))})
		}
	}
	gang, err := sim.NewGang(cfgs, sim.GangOptions{})
	if err != nil {
		return err
	}
	var res []*sim.Result
	g.cpu += cpuTimed(tr, "sim.Gang.Run/"+c.id(), func() { res, err = gang.Run(context.Background()) })
	if err != nil {
		return err
	}
	st := gang.Stats()
	g.classCycles += st.ClassCycles
	g.memberCycles += st.MemberCycles
	g.forks += st.Forks
	g.merges += st.Merges
	g.results = append(g.results, res...)
	return nil
}

// timeMulticore times whole multicore steps at n cores.
func timeMulticore(tr *tracer, n int) (float64, error) {
	cfg, err := bench.NewMulticoreRun("hotneighbor", "PID", n, mcInsts)
	if err != nil {
		return 0, err
	}
	mc, err := sim.NewMulticore(cfg)
	if err != nil {
		return 0, err
	}
	d := cpuTimed(tr, fmt.Sprintf("sim.Multicore.Step/c%d", n), func() {
		for !mc.Done() {
			mc.Step()
		}
	})
	return float64(d.Nanoseconds()) / float64(mc.Cycle()), nil
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// experimentsPass runs the tables workload in process, one span per
// public experiments entry point, and returns the phase seconds, the
// baseline and policy results (for the traffic audit) and the share of
// the cores the runner pool kept busy.
type expPass struct {
	phase    map[string]float64
	results  []*sim.Result
	baseline []*sim.Result
	busy     float64
}

func experimentsPass(tr *tracer) (*expPass, error) {
	p := experiments.DefaultParams()
	p.Insts = tablesInsts
	out := &expPass{phase: map[string]float64{}}
	var err error
	cpu0, t0 := cpuTime(), time.Now()
	step := func(name string, f func() error) {
		if err != nil {
			return
		}
		out.phase[name] = tr.timed("experiments."+name, func() { err = f() }).Seconds()
	}
	step("baseline", func() error {
		out.baseline, err = experiments.Baseline(p)
		return err
	})
	step("proxies", func() error { _, _, err := experiments.ProxyTables(p, nil); return err })
	step("policy_eval", func() error {
		ev, err := experiments.RunPolicyEval(p)
		if err == nil {
			out.results = append(out.results, ev.Base...)
			for _, pol := range ev.Policies {
				out.results = append(out.results, ev.ByPolicy[pol]...)
			}
		}
		return err
	})
	step("setpoint", func() error { _, err := experiments.SetpointStudy(p); return err })
	step("multicore", func() error { _, err := experiments.MulticoreFaceOff(p, []int{1, 2, 4}); return err })
	if err != nil {
		return nil, err
	}
	out.busy = busyFrac(cpuTime()-cpu0, time.Since(t0))
	return out, nil
}

func busyFrac(cpu, wall time.Duration) float64 {
	return cpu.Seconds() / (float64(runtime.GOMAXPROCS(0)) * wall.Seconds())
}

// cachePass replays the served stream's keys against runner.Cache over a
// copy of the pristine store, as the worker does: Get, and on a miss Put
// plus a catalog ingest. A Get that grows the memory layer read the store.
type cachePass struct {
	diskUs, memUs, putUs, ingestUs []float64
	openS                          float64
	gets, hits                     int
}

func runCachePass(tr *tracer, e *env, reqs []request) (*cachePass, error) {
	pristine, _, err := ensurePristine(e)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.work, fmt.Sprintf("cachepass-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	if err := copyDir(filepath.Join(pristine, "cache"), dir); err != nil {
		return nil, err
	}
	id := tr.begin("cache+runindex")
	defer tr.end(id)
	var cat *runindex.Catalog
	d := tr.timed("runindex.Open", func() {
		cat, err = runindex.Open(filepath.Join(dir, "catalog"), runindex.Options{})
	})
	if err != nil {
		return nil, err
	}
	defer cat.Close()
	cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: dir}, nil)
	if err != nil {
		return nil, err
	}
	defer cache.Close()
	cp := &cachePass{openS: d.Seconds()}

	// A stored result stands in for a fresh simulation's: the store and
	// catalog cost depends on the encoded size, not on the values.
	stand, ok := cache.Get(mustKey(storedConfigs()[0]))
	if !ok {
		return nil, fmt.Errorf("pristine store lost %s", storedConfigs()[0].id())
	}
	for _, r := range reqs {
		key := mustKey(r)
		n0 := cache.Len()
		t0 := time.Now()
		_, hit := cache.Get(key)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		cp.gets++
		if hit {
			cp.hits++
			if cache.Len() > n0 {
				cp.diskUs = append(cp.diskUs, us)
			} else {
				cp.memUs = append(cp.memUs, us)
			}
			continue
		}
		t0 = time.Now()
		cache.Put(key, stand)
		cp.putUs = append(cp.putUs, float64(time.Since(t0).Nanoseconds())/1e3)
		rec := runindex.FromResult(key, stand)
		t0 = time.Now()
		cat.Ingest(rec)
		cp.ingestUs = append(cp.ingestUs, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return cp, nil
}

// mustKey is the cache key cmd/serve computes for a /run request.
func mustKey(r request) string {
	prof, err := bench.ByName(r.Bench)
	if err != nil {
		panic(err)
	}
	cfg := sim.Config{Workload: prof, MaxInsts: r.Insts}
	if err := bench.ApplyPolicy(&cfg, r.Policy, 0); err != nil {
		panic(err)
	}
	key, ok := sim.CacheKey(cfg)
	if !ok {
		panic("uncacheable config " + r.id())
	}
	return key
}

// probeBlocks is the length of a served probe on workloads that do not
// serve: one round of blocks.
var probeBlocks = len(bench.Names())

// runTraced measures every per-layer metric. The sim-stage, gang,
// multicore, experiments and cache timings run in process on the
// workload's representative inputs; the serving and cluster numbers come
// from /metrics before and after a served stream — the workload's own
// stream for serving on serve, a one-round probe otherwise. Counts of
// the paths the workload's traffic took (the audit) come from that
// traffic itself.
func runTraced(e *env) (*result, error) {
	ref, err := loadRefs(e)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	root := tr.begin("traced/" + e.workload)
	res := &result{Correct: true}

	st, err := splitStages(tr, stageBench, "PI")
	if err != nil {
		return nil, err
	}

	var rep gangPass
	for _, b := range []string{hotBench, coolBench} {
		if err := runGang(tr, sweepCmd{"setpoint", "PI", b}, sweepInsts, &rep); err != nil {
			return nil, err
		}
	}

	mc := map[int]float64{}
	for _, n := range []int{1, 2, 4} {
		if mc[n], err = timeMulticore(tr, n); err != nil {
			return nil, err
		}
	}

	exp, err := experimentsPass(tr)
	if err != nil {
		return nil, err
	}

	// Audit of the workload's own traffic.
	var audit struct {
		eulerFrac, surrogate, gangOcc, gangForks, hitFrac, storeReadFrac float64
	}
	busy := exp.busy
	if e.workload == "tables" {
		var base uint64
		for _, r := range exp.baseline {
			base += r.Cycles // the proxy runs replay these cycles on the Euler path
		}
		audit.eulerFrac = float64(base) / float64(ref.Tables.CfgCycles)
		for _, r := range append(exp.results, exp.baseline...) {
			audit.surrogate += float64(r.SurrogateCycles)
		}
	}
	if e.workload == "sweep" {
		var traffic gangPass
		cpu0, t0 := cpuTime(), time.Now()
		for _, c := range sweepCmds() {
			if err := runGang(tr, c, sweepInsts, &traffic); err != nil {
				return nil, err
			}
		}
		busy = busyFrac(cpuTime()-cpu0, time.Since(t0))
		audit.gangOcc = traffic.occupancy()
		audit.gangForks = float64(traffic.forks)
		for _, r := range traffic.results {
			audit.surrogate += float64(r.SurrogateCycles)
		}
	}

	own := e.workload == "serve"
	blocks := probeBlocks
	if own {
		blocks = blocksFor(e.seconds)
	}
	reqs := makeStream(e.seed, blocks)
	cp, err := runCachePass(tr, e, reqs)
	if err != nil {
		return nil, err
	}

	// internal/cluster runs on no workload's traffic, so every traced run
	// sends a one-round probe through two workers behind a coordinator.
	var sv, cl *servedRun
	tr.timed("served/serve", func() { sv, err = serveStream(e, false, reqs, 1) })
	if err != nil {
		return nil, err
	}
	tr.timed("served/cluster", func() { cl, err = serveStream(e, true, makeStream(e.seed, probeBlocks), 1) })
	if err != nil {
		return nil, err
	}
	res.Attempted += sv.attempted + cl.attempted
	res.Failed += sv.failed + cl.failed
	if own {
		audit.hitFrac = float64(len(sv.hitLat)) / float64(sv.attempted)
		if cp.hits > 0 {
			audit.storeReadFrac = float64(len(cp.diskUs)) / float64(cp.hits)
		}
	}
	total := tr.end(root)

	if err := writeSpans(e, tr); err != nil {
		return nil, err
	}

	set := res.set
	set("workload.next_ns", st.nextNs, "ns")
	set("workload.ops_per_cycle", st.opsPerCycle, "count")
	set("pipeline.step_ns", st.pipeNs, "ns")
	set("pipeline.ipc", st.ipc, "ratio")
	set("power.block_ns", st.powerNs, "ns")
	set("thermal.window_ns", st.windowNs, "ns")
	set("thermal.window_len", st.windowLen, "count")
	set("thermal.euler_ns", st.eulerNs, "ns")
	set("dtm.sample_ns", st.dtmNs, "ns")
	set("dtm.samples", st.samples, "count")
	set("sim.step_ns", st.simNs, "ns")
	set("sim.euler_step_ns", st.eulerSimNs, "ns")
	set("sim.stage_sum_ns", st.sumNs, "ns")
	set("sim.glue_ns", st.glueNs, "ns")
	set("gang.class_step_ns", float64(rep.cpu.Nanoseconds())/float64(rep.classCycles), "ns")
	set("gang.occupancy", rep.occupancy(), "count")
	set("gang.forks", float64(rep.forks), "count")
	set("gang.merges", float64(rep.merges), "count")
	for _, n := range []int{1, 2, 4} {
		set(fmt.Sprintf("multicore.step_ns.c%d", n), mc[n], "ns")
	}
	for _, ph := range []string{"baseline", "proxies", "policy_eval", "setpoint", "multicore"} {
		set("experiments."+ph+"_s", exp.phase[ph], "s")
	}
	set("runner.busy_frac", busy, "ratio")
	set("cache.get_disk_us", median(cp.diskUs), "us")
	set("cache.get_mem_us", median(cp.memUs), "us")
	set("cache.put_us", median(cp.putUs), "us")
	set("cache.hit_frac", float64(cp.hits)/float64(cp.gets), "ratio")
	set("runindex.ingest_us", median(cp.ingestUs), "us")
	set("runindex.open_s", cp.openS, "s")

	set("serving.request_ms", 1e3*ratio(sv.wDelta["serve_request_seconds_sum"], sv.wDelta["serve_request_seconds_count"]), "ms")
	set("serving.shed", sv.wDelta["serve_shed_queue_full_total"]+sv.wDelta["serve_shed_wait_timeout_total"], "count")
	hitTail, _ := tail(sv.hitLat)
	missTail, missPct := tail(sv.missLat)
	set("serving.hit_p50_ms", median(sv.hitLat), "ms")
	set("serving.hit_tail_ms", hitTail, "ms")
	set("serving.miss_p50_ms", median(sv.missLat), "ms")
	set("serving.miss_tail_ms", missTail, "ms")

	coordMs := 1e3 * ratio(cl.cDelta["serve_request_seconds_sum"], cl.cDelta["serve_request_seconds_count"])
	workerMs := 1e3 * ratio(cl.wDelta["serve_request_seconds_sum"], cl.wDelta["serve_request_seconds_count"])
	set("cluster.overhead_ms", coordMs-workerMs, "ms")
	set("cluster.affinity_frac", ratio(cl.cDelta["cluster_affinity_hits_total"],
		cl.cDelta["cluster_affinity_hits_total"]+cl.cDelta["cluster_affinity_misses_total"]), "ratio")
	set("cluster.retries", cl.cDelta["cluster_retries_total"], "count")
	lateTail, _ := tail(sv.lateMs)
	set("loadgen.late_ms", lateTail, "ms")

	set("audit.euler_cycle_frac", audit.eulerFrac, "ratio")
	set("audit.surrogate_cycles", audit.surrogate, "count")
	set("audit.gang_occupancy", audit.gangOcc, "count")
	set("audit.gang_forks", audit.gangForks, "count")
	set("audit.hit_frac", audit.hitFrac, "ratio")
	set("audit.store_read_frac", audit.storeReadFrac, "ratio")
	set("trace.overhead_frac", tr.cost.Seconds()/total.Seconds(), "ratio")

	logf("traced %s: stage sum %.1fns vs sim.Sim.Step %.1fns (glue %.1fns); gen %.1f pipe %.1f power %.1f thermal %.2f dtm %.3f ns/cycle; miss tail p%v",
		e.workload, st.sumNs, st.simNs, st.glueNs, st.nextNs*st.opsPerCycle, st.pipeNs, st.powerNs,
		st.windowNs/st.windowLen, st.dtmNs*st.samples/float64(recordCycles), missPct)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the traced run's spans, with self times, next to the
// run's other scratch files.
func writeSpans(e *env, tr *tracer) error {
	f, err := os.Create(filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.jsonl", e.workload, e.seed)))
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
