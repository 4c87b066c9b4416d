// Command tables regenerates the paper's tables (see DESIGN.md for the
// experiment index). With no flags it prints every table; -table selects
// one. The solo tables share one batch (an experiments.Suite), in which
// each distinct run simulates once and each benchmark's runs form one
// gang; Table 14's multicore face-off is a second batch. Ctrl-C aborts
// cleanly mid-batch, and -progress reports per-job completion on stderr,
// where one job is a single run or a gang of one benchmark's runs.
//
//	tables                 # everything (several minutes)
//	tables -table 4        # benchmark characterization only
//	tables -insts 500000   # quicker, lower-fidelity runs
//	tables -workers 4      # bound batch parallelism
//	tables -metrics m.prom # dump final Prometheus-text metrics
//	tables -trace t.jsonl  # stream per-run telemetry samples
//	tables -cache-dir .rc  # reuse identical runs across invocations (pack store + run catalog)
//
// Catalog mode renders reports from run history (the dimension-indexed
// catalog every -cache-dir run of tables, sweep and cmd/serve feeds)
// without simulating:
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
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the tables to stdout
// and diagnostics to stderr, and returns the exit code (130 when
// interrupted).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.Int("table", 0, "table number to regenerate (0 = all)")
		insts    = fs.Uint64("insts", 2_000_000, "committed instructions per run")
		workers  = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		progress = fs.Bool("progress", true, "report per-job batch progress on stderr (a gang of runs is one job)")
		trace    = fs.String("trace", "", "write JSONL telemetry samples of the solo tables' runs to this file (\"-\" = stdout); Table 14's multicore runs record none")
		metrics  = fs.String("metrics", "", "write a final Prometheus-text metrics dump to this file (\"-\" = stderr)")
		cacheDir = fs.String("cache-dir", "", "persist run results as pack volumes (pack-*.dat) and a run catalog (<dir>/catalog) under this directory and reuse them (disabled with -trace/-metrics)")
		catDir   = fs.String("catalog", "", "render reports from the run catalog at this directory instead of simulating")
		pareto   = fs.Bool("pareto", false, "with -catalog: print the per-benchmark IPC/emergency pareto frontier")
		sensDim  = fs.String("sensitivity", "", "with -catalog: print mean metrics bucketed by this dimension (trigger|kp|ki|interval|stride|cores|insts)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	// Catalog mode never simulates: open the history, print the requested
	// reports (the rollup when neither -pareto nor -sensitivity asks for
	// something sharper), and exit.
	if *catDir != "" {
		cat, err := runindex.Open(*catDir, runindex.Options{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer cat.Close()
		fmt.Fprintf(stderr, "run catalog: %d records\n", cat.Len())
		if !*pareto && *sensDim == "" {
			fmt.Fprintf(stdout, "\n=== Run catalog: per benchmark/policy rollup ===\n")
			fmt.Fprint(stdout, experiments.CatalogSummary(cat))
		}
		if *pareto {
			fmt.Fprintf(stdout, "\n=== Run catalog: IPC / emergency-residency pareto frontier ===\n")
			fmt.Fprint(stdout, experiments.CatalogPareto(cat))
		}
		if *sensDim != "" {
			dim, err := runindex.ParseDim(*sensDim)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			fmt.Fprintf(stdout, "\n=== Run catalog: sensitivity along %s ===\n", dim)
			fmt.Fprint(stdout, experiments.CatalogSensitivity(cat, dim))
		}
		return 0
	}
	if *pareto || *sensDim != "" {
		fmt.Fprintln(stderr, "tables: -pareto/-sensitivity require -catalog")
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sinks, err := telemetry.OpenSinks(*trace, *metrics, len(floorplan.Blocks()))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	p := experiments.DefaultParams()
	p.Insts = *insts
	p.Context = ctx
	p.Workers = *workers
	p.Registry = sinks.Registry
	p.Trace = sinks.Recorder
	if *cacheDir != "" {
		store, err := experiments.OpenStore(*cacheDir, sinks.Registry)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer store.Close()
		p.Cache = store.Cache
	}
	if *progress {
		p.Progress = func(pr runner.Progress) {
			fmt.Fprintf(stderr, "\r%d/%d jobs (%d failed, %v)  ",
				pr.Done, pr.Total, pr.Failed, pr.Elapsed.Round(time.Second))
			if pr.Done == pr.Total {
				fmt.Fprintln(stderr)
			}
		}
	}

	want := func(n int) bool { return *table == 0 || *table == n }
	// fail reports a batch error and returns the exit code for it.
	fail := func(err error) int {
		sinks.Close() // keep partial telemetry from aborted batches
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "\ninterrupted")
			return 130
		}
		fmt.Fprintln(stderr, err)
		return 1
	}
	banner := func(n int, title string) {
		fmt.Fprintf(stdout, "\n=== Table %d: %s ===\n", n, title)
	}

	if want(2) {
		banner(2, "simulated processor configuration")
		fmt.Fprint(stdout, experiments.Table2())
	}
	if want(3) {
		banner(3, "per-structure thermal parameters")
		fmt.Fprint(stdout, experiments.Table3())
	}
	if want(5) {
		banner(5, "thermal categories")
		fmt.Fprint(stdout, experiments.Table5())
	}

	// Every solo table registers its runs in one suite, which simulates
	// each distinct run once, in one gang per benchmark.
	suite := experiments.NewSuite(p)
	var (
		base    func() []*sim.Result
		proxies func() (perStruct, chipWide *stats.Table)
		eval    func() *experiments.PolicyEval
		setp    func() *stats.Table
	)
	if want(4) || want(6) || want(7) || want(8) {
		base = suite.Baseline()
	}
	if want(9) || want(10) {
		proxies = suite.ProxyTables(nil)
	}
	if want(11) || want(12) {
		eval = suite.PolicyEval()
	}
	if want(13) {
		setp = suite.SetpointStudy()
	}
	var timing []string // one "batch wall" entry per batch run
	if base != nil || proxies != nil || eval != nil || setp != nil {
		start := time.Now()
		if err := suite.Run(); err != nil {
			return fail(err)
		}
		timing = append(timing, fmt.Sprintf("solo suite %v", time.Since(start)))
	}
	if base != nil {
		base := base()
		if want(4) {
			banner(4, "benchmark characterization (no DTM)")
			fmt.Fprint(stdout, experiments.Table4(base))
		}
		if want(6) {
			banner(6, "per-structure avg/max temperature (C)")
			fmt.Fprint(stdout, experiments.Table6(base))
		}
		if want(7) {
			banner(7, "per-structure cycles in thermal emergency (> D)")
			fmt.Fprint(stdout, experiments.Table7(base))
		}
		if want(8) {
			banner(8, "per-structure cycles in thermal stress (> D-1)")
			fmt.Fprint(stdout, experiments.Table8(base))
		}
	}
	if proxies != nil {
		ps, cw := proxies()
		if want(9) {
			banner(9, "per-structure boxcar power proxy vs RC model")
			fmt.Fprint(stdout, ps)
		}
		if want(10) {
			banner(10, "chip-wide boxcar power proxy vs RC model")
			fmt.Fprint(stdout, cw)
		}
	}
	if eval != nil {
		ev := eval()
		if want(11) {
			banner(11, "DTM policy evaluation: % of non-DTM IPC (emergency residency)")
			fmt.Fprint(stdout, ev.Table11())
		}
		if want(12) {
			banner(12, "headline aggregate (Section 7)")
			fmt.Fprint(stdout, ev.Table12())
		}
	}
	if setp != nil {
		banner(13, "PI/PID setpoint sensitivity")
		fmt.Fprint(stdout, setp())
	}
	if want(14) {
		start := time.Now()
		t, err := experiments.MulticoreFaceOff(p, []int{1, 2, 4})
		if err != nil {
			return fail(err)
		}
		timing = append(timing, fmt.Sprintf("multicore face-off %v", time.Since(start)))
		banner(14, "multicore controller face-off (per-core PID vs adaptive-gain DVFS vs power budget)")
		fmt.Fprint(stdout, t)
	}
	if len(timing) > 0 {
		fmt.Fprintf(stderr, "batch wall time: %s\n", strings.Join(timing, ", "))
	}
	if err := sinks.Close(); err != nil {
		return fail(err)
	}
	return 0
}
