// Command tables regenerates the paper's tables (see DESIGN.md for the
// experiment index). With no flags it prints every table; -table selects
// one. Batches run through the experiments batch engine: Ctrl-C aborts
// cleanly mid-batch, and -progress reports per-job completion on stderr,
// where one job is a single run or a gang of one benchmark's runs.
//
//	tables                 # everything (several minutes)
//	tables -table 4        # benchmark characterization only
//	tables -insts 500000   # quicker, lower-fidelity runs
//	tables -workers 4      # bound batch parallelism
//	tables -metrics m.prom # dump final Prometheus-text metrics
//	tables -trace t.jsonl  # stream per-run telemetry samples
//	tables -cache-dir .rc  # reuse identical runs across invocations (pack store)
//
// Catalog mode renders reports from run history (the dimension-indexed
// catalog maintained by sweep -fill and cmd/serve) without simulating:
//
//	tables -catalog .rc/catalog                    # per bench/policy rollup
//	tables -catalog .rc/catalog -pareto            # IPC/emergency frontier
//	tables -catalog .rc/catalog -sensitivity kp    # mean metrics per kp value
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	var (
		table    = flag.Int("table", 0, "table number to regenerate (0 = all)")
		insts    = flag.Uint64("insts", 2_000_000, "committed instructions per run")
		workers  = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", true, "report per-job batch progress on stderr (a gang of runs is one job)")
		trace    = flag.String("trace", "", "write JSONL telemetry samples to this file (\"-\" = stdout)")
		metrics  = flag.String("metrics", "", "write a final Prometheus-text metrics dump to this file (\"-\" = stderr)")
		cacheDir = flag.String("cache-dir", "", "persist run results as pack volumes (pack-*.dat) under this directory and reuse them (disabled with -trace/-metrics)")
		cacheMem = flag.Int64("cache-mem", 0, "in-memory cache layer cap in MiB (0 = default 256, negative = unlimited)")
		catDir   = flag.String("catalog", "", "render reports from the run catalog at this directory instead of simulating")
		pareto   = flag.Bool("pareto", false, "with -catalog: print the per-benchmark IPC/emergency pareto frontier")
		sensDim  = flag.String("sensitivity", "", "with -catalog: print mean metrics bucketed by this dimension (trigger|kp|ki|interval|stride|cores|insts)")
	)
	flag.Parse()

	// Catalog mode never simulates: open the history, print the requested
	// reports (the rollup when neither -pareto nor -sensitivity asks for
	// something sharper), and exit.
	if *catDir != "" {
		cat, err := runindex.Open(*catDir, runindex.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cat.Close()
		fmt.Fprintf(os.Stderr, "run catalog: %d records\n", cat.Len())
		if !*pareto && *sensDim == "" {
			fmt.Printf("\n=== Run catalog: per benchmark/policy rollup ===\n")
			fmt.Print(experiments.CatalogSummary(cat))
		}
		if *pareto {
			fmt.Printf("\n=== Run catalog: IPC / emergency-residency pareto frontier ===\n")
			fmt.Print(experiments.CatalogPareto(cat))
		}
		if *sensDim != "" {
			dim, err := runindex.ParseDim(*sensDim)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("\n=== Run catalog: sensitivity along %s ===\n", dim)
			fmt.Print(experiments.CatalogSensitivity(cat, dim))
		}
		return
	}
	if *pareto || *sensDim != "" {
		fmt.Fprintln(os.Stderr, "tables: -pareto/-sensitivity require -catalog")
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sinks, err := telemetry.OpenSinks(*trace, *metrics, len(floorplan.Blocks()))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	p := experiments.DefaultParams()
	p.Insts = *insts
	p.Context = ctx
	p.Workers = *workers
	p.Registry = sinks.Registry
	p.Trace = sinks.Recorder
	if *cacheDir != "" {
		var cm *telemetry.CacheMetrics
		if sinks.Registry != nil {
			cm = telemetry.NewCacheMetrics(sinks.Registry)
		}
		memBytes := *cacheMem
		if memBytes > 0 {
			memBytes <<= 20
		}
		p.Cache, err = runner.NewCacheWith[*sim.Result](runner.CacheConfig{
			Dir:      *cacheDir,
			MemBytes: memBytes,
		}, cm)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer p.Cache.Close()
	}
	if *progress {
		p.Progress = func(pr runner.Progress) {
			fmt.Fprintf(os.Stderr, "\r%d/%d jobs (%d failed, %v)  ",
				pr.Done, pr.Total, pr.Failed, pr.Elapsed.Round(time.Second))
			if pr.Done == pr.Total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	want := func(n int) bool { return *table == 0 || *table == n }
	die := func(err error) {
		if err != nil {
			sinks.Close() // keep partial telemetry from aborted batches
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(os.Stderr, "\ninterrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	banner := func(n int, title string) {
		fmt.Printf("\n=== Table %d: %s ===\n", n, title)
	}

	if want(2) {
		banner(2, "simulated processor configuration")
		fmt.Print(experiments.Table2())
	}
	if want(3) {
		banner(3, "per-structure thermal parameters")
		fmt.Print(experiments.Table3())
	}
	if want(5) {
		banner(5, "thermal categories")
		fmt.Print(experiments.Table5())
	}

	var base []*sim.Result
	needBase := want(4) || want(6) || want(7) || want(8)
	if needBase {
		start := time.Now()
		var err error
		base, err = experiments.Baseline(p)
		die(err)
		fmt.Fprintf(os.Stderr, "baseline suite: %v\n", time.Since(start))
	}
	if want(4) {
		banner(4, "benchmark characterization (no DTM)")
		fmt.Print(experiments.Table4(base))
	}
	if want(6) {
		banner(6, "per-structure avg/max temperature (C)")
		fmt.Print(experiments.Table6(base))
	}
	if want(7) {
		banner(7, "per-structure cycles in thermal emergency (> D)")
		fmt.Print(experiments.Table7(base))
	}
	if want(8) {
		banner(8, "per-structure cycles in thermal stress (> D-1)")
		fmt.Print(experiments.Table8(base))
	}
	if want(9) || want(10) {
		ps, cw, err := experiments.ProxyTables(p, nil)
		die(err)
		if want(9) {
			banner(9, "per-structure boxcar power proxy vs RC model")
			fmt.Print(ps)
		}
		if want(10) {
			banner(10, "chip-wide boxcar power proxy vs RC model")
			fmt.Print(cw)
		}
	}
	if want(11) || want(12) {
		start := time.Now()
		ev, err := experiments.RunPolicyEval(p)
		die(err)
		fmt.Fprintf(os.Stderr, "policy evaluation: %v\n", time.Since(start))
		if want(11) {
			banner(11, "DTM policy evaluation: % of non-DTM IPC (emergency residency)")
			fmt.Print(ev.Table11())
		}
		if want(12) {
			banner(12, "headline aggregate (Section 7)")
			fmt.Print(ev.Table12())
		}
	}
	if want(13) {
		t, err := experiments.SetpointStudy(p)
		die(err)
		banner(13, "PI/PID setpoint sensitivity")
		fmt.Print(t)
	}
	if want(14) {
		start := time.Now()
		t, err := experiments.MulticoreFaceOff(p, []int{1, 2, 4})
		die(err)
		fmt.Fprintf(os.Stderr, "multicore face-off: %v\n", time.Since(start))
		banner(14, "multicore controller face-off (per-core PID vs adaptive-gain DVFS vs power budget)")
		fmt.Print(t)
	}
	die(sinks.Close())
}
