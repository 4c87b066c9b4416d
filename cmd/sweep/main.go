// Command sweep runs one-dimensional parameter sweeps around the paper's
// operating point and emits CSV — the raw material for the sensitivity
// discussions in Sections 2.1 (trigger level, policy delay) and 5.3
// (sampling interval, setpoint).
//
// All sweep points and the baseline run as one batch through the
// experiments batch engine (experiments.RunConfigs): cached cells are
// served without simulating, and the cold ones, which share one workload,
// step as one lock-step gang, with or without -trace/-metrics attached.
// Ctrl-C aborts mid-sweep, and the simulated throughput is summarized on
// stderr.
//
//	sweep -param setpoint -bench gcc -policy PI
//	sweep -param interval -bench gcc -policy PID
//	sweep -param delay    -bench gcc            # toggle1 policy delay
//	sweep -param trigger  -bench gcc            # toggle1 trigger level
//	sweep -param cores    -bench hotneighbor -policy agi   # multicore scaling
//	sweep -param trigger  -bench gcc -cache-dir .rc -fill  # pack-store cache + run catalog
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
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
		cacheDir  = fs.String("cache-dir", "", "persist run results as pack volumes (pack-*.dat) under this directory and reuse them (disabled with -trace/-metrics)")
		cacheMem  = fs.Int64("cache-mem", 0, "in-memory cache layer cap in MiB (0 = default 256, negative = unlimited)")
		fill      = fs.Bool("fill", false, "grid-fill: consult the run catalog under <cache-dir>/catalog and dispatch only cells it is missing (requires -cache-dir)")
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

	// Grid-fill mode: the catalog rides next to the result cache and
	// remembers every completed cell across sweep invocations, so a
	// re-run (or a widened grid) dispatches only the cells it is missing
	// and renders the rest from cataloged rows.
	var catalog *runindex.Catalog
	if *fill {
		if *cacheDir == "" {
			return fail(errors.New("sweep: -fill requires -cache-dir"))
		}
		var im *telemetry.IndexMetrics
		if sinks.Registry != nil {
			im = telemetry.NewIndexMetrics(sinks.Registry)
		}
		catalog, err = runindex.Open(filepath.Join(*cacheDir, "catalog"), runindex.Options{Metrics: im})
		if err != nil {
			return fail(err)
		}
		defer catalog.Close()
	}

	// The cores sweep runs the multicore engine (its own config and result
	// types, no result cache), so it branches off before the solo sweep
	// machinery. -bench names a core-interaction scenario here and -policy
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
		// Grid-fill keys each cell by the content hash of its config.
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
			if catalog != nil {
				if rec, ok := catalog.Get(keys[i]); ok {
					recs[i] = rec
					continue
				}
			}
			cold = append(cold, i)
		}
		if catalog != nil {
			fmt.Fprintf(stderr, "fill: %d/%d cells warm in catalog, dispatching %d cold cells\n",
				len(cells)-len(cold), len(cells), len(cold))
		}
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
				if catalog != nil {
					catalog.Ingest(recs[i])
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

	var cache *runner.Cache[*sim.Result]
	if *cacheDir != "" {
		var cm *telemetry.CacheMetrics
		if sinks.Registry != nil {
			cm = telemetry.NewCacheMetrics(sinks.Registry)
		}
		memBytes := *cacheMem
		if memBytes > 0 {
			memBytes <<= 20
		}
		cache, err = runner.NewCacheWith[*sim.Result](runner.CacheConfig{
			Dir:      *cacheDir,
			MemBytes: memBytes,
		}, cm)
		if err != nil {
			return fail(err)
		}
		defer cache.Close()
		if catalog != nil {
			// A cache populated before -fill existed has results the catalog
			// never saw; the pack store can replay them wholesale.
			if catalog.Len() == 0 {
				if n, err := catalog.RebuildFromStore(cache.Store()); err == nil && n > 0 {
					fmt.Fprintf(stderr, "fill: rebuilt catalog from pack store (%d records)\n", n)
				}
			}
			cache.SetIngest(func(key string, res *sim.Result) {
				catalog.Ingest(runindex.FromResult(key, res))
			})
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

	// With -fill the catalog answers first: its row is enough to render
	// the CSV without touching the result cache. The rest run through the
	// batch engine, which serves what it can from the cache and
	// gang-schedules the cold remainder; its cache hits are ingested so
	// the catalog catches up on results that predate it. Instrumented runs
	// are rejected by sim.CacheKey and always execute.
	recs := make([]runindex.Record, len(cfgs))
	keys := make([]string, len(cfgs))
	var pending []int
	for i, cfg := range cfgs {
		if cache != nil {
			if key, ok := sim.CacheKey(cfg); ok {
				keys[i] = key
				if catalog != nil {
					if rec, hit := catalog.Get(key); hit {
						recs[i] = rec
						continue
					}
				}
			}
		}
		pending = append(pending, i)
	}
	batch := make([]sim.Config, len(pending))
	for j, i := range pending {
		batch[j] = cfgs[i]
	}
	p := experiments.Params{Context: ctx, Workers: *workers, Registry: sinks.Registry, Cache: cache}
	start := time.Now()
	outs, simulated, err := experiments.RunConfigs(p, batch)
	if err != nil {
		return fail(err)
	}
	cells, cycles := 0, uint64(0)
	for j, i := range pending {
		recs[i] = runindex.FromResult(keys[i], outs[j])
		if simulated[j] {
			cells++
			cycles += outs[j].Cycles
		} else if catalog != nil {
			catalog.Ingest(recs[i])
		}
	}
	if catalog != nil {
		fmt.Fprintf(stderr, "fill: %d/%d cells warm in catalog, dispatching %d cold cells\n",
			len(cfgs)-cells, len(cfgs), cells)
	} else if cache != nil {
		fmt.Fprintf(stderr, "cache pre-flight: %d/%d cells warm, %d cold\n",
			len(cfgs)-cells, len(cfgs), cells)
	}
	base := &recs[0]

	fmt.Fprintf(stdout, "%s,ipc,pct_of_base,emerg_pct,stress_pct,avg_duty,engagements\n", *param)
	for i, pt := range points {
		res := &recs[i+1]
		fmt.Fprintf(stdout, "%s,%.4f,%.2f,%.3f,%.3f,%.3f,%d\n",
			pt.label, res.IPC, 100*res.IPC/base.IPC,
			100*res.EmergFrac, 100*res.StressFrac,
			res.AvgDuty, res.Engagements)
	}
	fmt.Fprintf(stderr, "baseline: IPC %.4f emerg %.2f%%\n", base.IPC, 100*base.EmergFrac)
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
