// Command sweep runs one-dimensional parameter sweeps around the paper's
// operating point and emits CSV — the raw material for the sensitivity
// discussions in Sections 2.1 (trigger level, policy delay) and 5.3
// (sampling interval, setpoint).
//
// All sweep points and the baseline run as one batch through the
// experiments batch engine (experiments.RunConfigs): with -cache-dir,
// cells already in the store are served without simulating, and the cold
// ones, which share one workload, step as one lock-step gang, with or
// without -trace/-metrics attached. The cores sweep reads warm cells from
// the store's run catalog. A repeated sweep over one -cache-dir simulates
// nothing. Ctrl-C aborts mid-sweep, and the simulated throughput is
// summarized on stderr.
//
//	sweep -param setpoint -bench gcc -policy PI
//	sweep -param interval -bench gcc -policy PID
//	sweep -param delay    -bench gcc            # toggle1 policy delay
//	sweep -param trigger  -bench gcc            # toggle1 trigger level
//	sweep -param cores    -bench hotneighbor -policy agi   # multicore scaling
//	sweep -param trigger  -bench gcc -cache-dir .rc  # reuse runs across invocations
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"time"

	"repro/internal/bench"
	"repro/internal/dtm"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the CSV to stdout and
// diagnostics to stderr, and returns the exit code (130 when
// interrupted).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		param     = fs.String("param", "setpoint", "setpoint | interval | delay | trigger | cores")
		benchName = fs.String("bench", "gcc", "benchmark")
		policy    = fs.String("policy", "PI", "controller for setpoint/interval sweeps")
		insts     = fs.Uint64("insts", 1_000_000, "committed instructions per point")
		workers   = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		trace     = fs.String("trace", "", "write JSONL telemetry samples to this file")
		metrics   = fs.String("metrics", "", "write a final Prometheus-text metrics dump to this file (\"-\" = stderr)")
		cacheDir  = fs.String("cache-dir", "", "persist run results and their run-catalog rows as pack volumes (pack-*.dat) under this directory and reuse them (solo runs with -trace/-metrics always simulate)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sinks, err := telemetry.OpenSinks(*trace, *metrics, len(floorplan.Blocks()))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// fail reports an error and returns the exit code for it.
	fail := func(err error) int {
		sinks.Close() // keep partial telemetry from aborted sweeps
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "interrupted")
			return 130
		}
		fmt.Fprintln(stderr, err)
		return 1
	}

	// The store remembers every completed cell across sweep invocations,
	// so a re-run (or a widened grid) simulates only the cells it is
	// missing.
	var store *experiments.Store
	var cache *runner.Cache[*sim.Result]
	if *cacheDir != "" {
		if store, err = experiments.OpenStore(*cacheDir, sinks.Registry); err != nil {
			return fail(err)
		}
		defer store.Close()
		cache = store.Cache
	}
	// preflight reports how many of n cells the store answered.
	preflight := func(n, cold int) {
		if store != nil {
			fmt.Fprintf(stderr, "cache pre-flight: %d/%d cells warm, %d cold\n", n-cold, n, cold)
		}
	}

	// The cores sweep runs the multicore engine (its own config and result
	// types; warm cells come from the store's catalog rows, not the result
	// cache), so it branches off before the solo sweep machinery. -bench names a core-interaction scenario here and -policy
	// a multicore controller; each core count is reported against the
	// uncontrolled baseline at the same count, and the two run as one
	// multicore group through the multicore batch engine
	// (experiments.RunMulticoreConfigs).
	if *param == "cores" {
		scenario := *benchName
		if scenario == "gcc" { // solo default; pick the multicore default instead
			scenario = "hotneighbor"
		}
		pol := *policy
		if pol == "PI" { // solo default; the multicore face-off uses PID
			pol = "PID"
		}
		counts := []int{1, 2, 4, 8}
		type cell struct {
			cores  int
			policy string
		}
		var cells []cell
		for _, nc := range counts {
			cells = append(cells, cell{nc, "none"}, cell{nc, pol})
		}
		// The store's catalog keys each cell by the content hash of its
		// config: multicore results have no solo cache entry.
		cfgs := make([]sim.MulticoreConfig, len(cells))
		keys := make([]string, len(cells))
		for i, c := range cells {
			if cfgs[i], err = bench.NewMulticoreRun(scenario, c.policy, c.cores, *insts); err != nil {
				return fail(err)
			}
			keys[i] = sim.MulticoreCacheKey(cfgs[i])
		}
		recs := make([]runindex.Record, len(cells))
		var cold []int
		for i := range cells {
			if store != nil {
				if rec, ok := store.Catalog.Get(keys[i]); ok {
					recs[i] = rec
					continue
				}
			}
			cold = append(cold, i)
		}
		preflight(len(cells), len(cold))
		start := time.Now()
		var cycles uint64
		if len(cold) > 0 {
			batch := make([]sim.MulticoreConfig, len(cold))
			for j, i := range cold {
				batch[j] = cfgs[i]
			}
			p := experiments.Params{Context: ctx, Workers: *workers, Registry: sinks.Registry}
			outs, err := experiments.RunMulticoreConfigs(p, batch)
			if err != nil {
				return fail(err)
			}
			for j, i := range cold {
				cycles += outs[j].Cycles
				recs[i] = runindex.FromMulticore(keys[i], *insts, outs[j])
				if store != nil {
					store.Catalog.Put(recs[i])
				}
			}
		}
		fmt.Fprintf(stdout, "cores,ipc,pct_of_none,emerg_pct,stress_pct,avg_duty,avg_freq\n")
		for i := 0; i < len(cells); i += 2 {
			none, res := &recs[i], &recs[i+1]
			fmt.Fprintf(stdout, "%d,%.4f,%.2f,%.3f,%.3f,%.3f,%.3f\n",
				cells[i].cores, res.IPC, 100*res.IPC/none.IPC,
				100*res.EmergFrac, 100*res.StressFrac,
				res.AvgDuty, res.AvgFreq)
		}
		if wall := time.Since(start).Seconds(); len(cold) > 0 && wall > 0 {
			fmt.Fprintf(stderr, "sweep: %d cells simulated, %d cycles, %.0f cycles/s\n",
				len(cold), cycles, float64(cycles)/wall)
		}
		if err := sinks.Close(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}

	prof, err := bench.ByName(*benchName)
	if err != nil {
		return fail(err)
	}

	type point struct {
		label string
		cfg   sim.Config
	}
	var points []point
	var mkErr error // the first point that failed to build
	mk := func(label string, mut func(*sim.Config) error) {
		cfg := sim.Config{Workload: prof, MaxInsts: *insts}
		if err := mut(&cfg); err != nil {
			if mkErr == nil {
				mkErr = err
			}
			return
		}
		points = append(points, point{label, cfg})
	}

	switch *param {
	case "setpoint":
		for _, sp := range []float64{110.3, 110.6, 110.9, 111.0, 111.1, 111.2} {
			sp := sp
			mk(fmt.Sprintf("%.1f", sp), func(c *sim.Config) error {
				return bench.ApplyPolicy(c, *policy, sp)
			})
		}
	case "interval":
		for _, iv := range []uint64{250, 500, 1000, 2000, 4000, 8000, 16000} {
			iv := iv
			mk(fmt.Sprintf("%d", iv), func(c *sim.Config) error {
				if err := bench.ApplyPolicy(c, *policy, 0); err != nil {
					return err
				}
				c.Manager.Interval = iv
				return nil
			})
		}
	case "delay":
		for _, d := range []int{0, 1, 2, 5, 10, 20, 50, 100} {
			d := d
			mk(fmt.Sprintf("%d", d), func(c *sim.Config) error {
				c.Manager = dtm.NewManager(dtm.NewToggle1(bench.NonCTTrigger, d))
				return nil
			})
		}
	case "trigger":
		for _, tr := range []float64{109.3, 109.8, 110.3, 110.8, 111.0, 111.2} {
			tr := tr
			mk(fmt.Sprintf("%.1f", tr), func(c *sim.Config) error {
				c.Manager = dtm.NewManager(dtm.NewToggle1(tr, bench.PolicyDelaySamples))
				return nil
			})
		}
	default:
		return fail(fmt.Errorf("unknown parameter %q", *param))
	}
	if mkErr != nil {
		return fail(mkErr)
	}

	// instrument labels one point's run in the shared telemetry sinks.
	instrument := func(cfg *sim.Config, label string) {
		if sinks.Registry != nil {
			cfg.Metrics = telemetry.NewSimMetrics(sinks.Registry)
		}
		if sinks.Recorder != nil {
			cfg.Trace = sinks.Recorder
			cfg.TraceID = fmt.Sprintf("%s/%s=%s", *benchName, *param, label)
		}
	}

	// Baseline rides along as cell 0 so the whole sweep is one batch.
	cfgs := make([]sim.Config, 0, len(points)+1)
	baseCfg := sim.Config{Workload: prof, MaxInsts: *insts}
	instrument(&baseCfg, "base")
	cfgs = append(cfgs, baseCfg)
	for _, pt := range points {
		cfg := pt.cfg
		instrument(&cfg, pt.label)
		cfgs = append(cfgs, cfg)
	}

	p := experiments.Params{Context: ctx, Workers: *workers, Registry: sinks.Registry, Cache: cache}
	start := time.Now()
	outs, simulated, err := experiments.RunConfigs(p, cfgs)
	if err != nil {
		return fail(err)
	}
	cells, cycles := 0, uint64(0)
	for i, res := range outs {
		if simulated[i] {
			cells++
			cycles += res.Cycles
		}
	}
	preflight(len(cfgs), cells)
	base := outs[0]

	fmt.Fprintf(stdout, "%s,ipc,pct_of_base,emerg_pct,stress_pct,avg_duty,engagements\n", *param)
	for i, pt := range points {
		res := outs[i+1]
		fmt.Fprintf(stdout, "%s,%.4f,%.2f,%.3f,%.3f,%.3f,%d\n",
			pt.label, res.IPC, 100*res.IPC/base.IPC,
			100*res.EmergencyFrac(), 100*res.StressFrac(),
			res.AvgDuty, res.Engagements)
	}
	fmt.Fprintf(stderr, "baseline: IPC %.4f emerg %.2f%%\n", base.IPC, 100*base.EmergencyFrac())
	if wall := time.Since(start).Seconds(); cells > 0 && wall > 0 {
		fmt.Fprintf(stderr, "sweep: %d cells simulated, %d cycles, %.0f cycles/s\n",
			cells, cycles, float64(cycles)/wall)
	}
	if err := sinks.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
