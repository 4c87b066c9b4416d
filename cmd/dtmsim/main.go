// Command dtmsim runs one benchmark under one DTM policy and prints the
// run's performance and thermal metrics: the interactive front end to the
// reproduction (cmd/tables regenerates the paper's tables in bulk). With
// -trace it also emits the time series behind the paper's figures —
// hottest-block temperature, fetch duty and every block's temperature —
// as CSV, and renders them as SVG figures.
//
// Usage:
//
//	dtmsim -bench gcc -policy PI -insts 2000000
//	dtmsim -bench all -policy toggle1
//	dtmsim -bench gcc -policy PI -trace 5000 > gcc_pi.txt          # summary + per-block CSV
//	dtmsim -bench gcc -policy PI -trace 5000 -svg gcc_pi.svg       # temperature/duty chart
//	dtmsim -bench gcc -heatmap gcc_hot.svg                         # floorplan peak-temp map
//	dtmsim -bench gcc -policy PI -jsonl run.jsonl -metrics m.txt   # telemetry
//	dtmsim -list
//
// Stdout is deterministic; the wall time and simulated cycles/s go to
// stderr. Ctrl-C aborts the run (exit 130).
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
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the summaries and
// traces to stdout and diagnostics to stderr, and returns the exit code
// (2 for a usage error, 130 when interrupted).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchName = fs.String("bench", "gcc", "benchmark name, or 'all'")
		policy    = fs.String("policy", "none", "DTM policy: none, toggle1, toggle2, M, P, PI, PID, throttle, specctl, fscale, vfscale")
		insts     = fs.Uint64("insts", 2_000_000, "committed instructions to simulate")
		setpoint  = fs.Float64("setpoint", 0, "override controller setpoint (0 = paper default)")
		list      = fs.Bool("list", false, "list benchmarks and exit")
		trace     = fs.Uint64("trace", 0, "emit hottest-block temperature, duty and per-block temperature CSV every N cycles")
		verbose   = fs.Bool("v", false, "print per-block detail")
		svgPath   = fs.String("svg", "", "write a temperature/duty SVG chart to this file (needs -trace N>0 and one benchmark)")
		heatPath  = fs.String("heatmap", "", "write a floorplan peak-temperature SVG to this file (needs one benchmark)")
		jsonl     = fs.String("jsonl", "", "write JSONL telemetry samples (controller terms included) to this file (\"-\" = stdout)")
		metrics   = fs.String("metrics", "", "write a final Prometheus-text metrics dump to this file (\"-\" = stderr)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "dtmsim:", msg)
		fs.Usage()
		return 2
	}
	if *svgPath != "" && *trace == 0 {
		return usage("-svg needs -trace N>0")
	}
	if (*svgPath != "" || *heatPath != "") && *benchName == "all" {
		return usage("-svg and -heatmap render one benchmark, not -bench all")
	}

	if *list {
		for _, n := range bench.Names() {
			fmt.Fprintf(stdout, "%-10s %s\n", n, bench.CategoryOf(n))
		}
		return 0
	}

	names := []string{*benchName}
	if *benchName == "all" {
		names = bench.Names()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sinks, err := telemetry.OpenSinks(*jsonl, *metrics, len(floorplan.Blocks()))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// fail reports an error and returns the exit code for it.
	fail := func(err error) int {
		sinks.Close() // keep partial telemetry from aborted runs
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "interrupted")
			return 130
		}
		fmt.Fprintln(stderr, err)
		return 1
	}

	p := experiments.DefaultParams()
	p.Insts = *insts
	p.Context = ctx
	p.Registry = sinks.Registry
	p.Trace = sinks.Recorder
	p.TraceInterval = *trace
	start := time.Now()
	results, err := experiments.Trace(p, names, *policy, *setpoint, *trace)
	if err != nil {
		return fail(err)
	}
	wall := time.Since(start)

	var cycles uint64
	for _, res := range results {
		cycles += res.Cycles
		fmt.Fprintf(stdout, "%-10s policy=%-8s IPC=%5.3f avgP=%5.1fW maxP=%5.1fW duty=%4.2f emerg=%s stress=%s stalls=%d\n",
			res.Benchmark, res.Policy, res.IPC, res.AvgChipPower, res.MaxChipPower,
			res.AvgDuty, pct(res.EmergencyFrac()), pct(res.StressFrac()), res.StallCycles)
		if *verbose {
			for _, b := range res.Blocks {
				fmt.Fprintf(stdout, "    %-8s avgT=%7.3f maxT=%7.3f emerg=%s stress=%s\n",
					b.Name, b.AvgTemp, b.MaxTemp,
					pct(float64(b.EmergencyCycles)/float64(res.Cycles)),
					pct(float64(b.StressCycles)/float64(res.Cycles)))
			}
		}
		if *trace > 0 {
			fmt.Fprint(stdout, "cycle,hottest,duty")
			for _, b := range res.Blocks {
				fmt.Fprintf(stdout, ",%s", b.Name)
			}
			fmt.Fprintln(stdout)
			for i := range res.TempTrace.Xs {
				fmt.Fprintf(stdout, "%d,%.4f,%.4f", res.TempTrace.Xs[i], res.TempTrace.Ys[i], res.DutyTrace.Ys[i])
				for _, s := range res.BlockTrace {
					fmt.Fprintf(stdout, ",%.4f", s.Ys[i])
				}
				fmt.Fprintln(stdout)
			}
		}
	}

	if *svgPath != "" {
		svg := experiments.TraceChart(results[0], "hottest block (C)", "fetch duty (100=off..111.5=full)")
		if err := writeFigure(*svgPath, svg, stderr); err != nil {
			return fail(err)
		}
	}
	if *heatPath != "" {
		res := results[0]
		svg := experiments.PeakHeatmap(res,
			fmt.Sprintf("%s peak temperatures under %s (C)", res.Benchmark, res.Policy),
			map[string]float64{"D": bench.EmergencyTemp, "D-1": bench.NonCTTrigger})
		if err := writeFigure(*heatPath, svg, stderr); err != nil {
			return fail(err)
		}
	}

	fmt.Fprintf(stderr, "dtmsim: %d cycles in %v, %.2g cycles/s\n",
		cycles, wall.Round(time.Millisecond), float64(cycles)/wall.Seconds())
	if err := sinks.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// writeFigure writes one rendered SVG and notes it on stderr.
func writeFigure(path, svg string, stderr io.Writer) error {
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "wrote %s\n", path)
	return nil
}

func pct(f float64) string { return fmt.Sprintf("%6.2f%%", f*100) }
