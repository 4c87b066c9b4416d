// Command traces emits the time series behind the paper's figures:
// per-block temperature and fetch duty over time for one benchmark under
// one DTM policy, as CSV on stdout, or as rendered SVG figures.
//
//	traces -bench gcc -policy PI -insts 2000000 > gcc_pi.csv
//	traces -bench gcc -policy PI -svg gcc_pi.svg        # temperature/duty chart
//	traces -bench gcc -heatmap gcc_hot.svg              # floorplan peak-temp map
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/floorplan"
	"repro/internal/telemetry"
)

func main() {
	var (
		benchName = flag.String("bench", "gcc", "benchmark")
		policy    = flag.String("policy", "PI", "DTM policy")
		insts     = flag.Uint64("insts", 2_000_000, "committed instructions")
		stride    = flag.Uint64("stride", 5000, "cycles between samples")
		svgPath   = flag.String("svg", "", "write a temperature/duty SVG chart to this file")
		heatPath  = flag.String("heatmap", "", "write a floorplan peak-temperature SVG to this file")
		trace     = flag.String("trace", "", "write JSONL telemetry samples (controller terms included) to this file")
		metrics   = flag.String("metrics", "", "write a final Prometheus-text metrics dump to this file (\"-\" = stderr)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	sinks, err := telemetry.OpenSinks(*trace, *metrics, len(floorplan.Blocks()))
	if err != nil {
		fatal(err)
	}

	p := experiments.DefaultParams()
	p.Insts = *insts
	p.Context = ctx
	p.Registry = sinks.Registry
	p.Trace = sinks.Recorder
	p.TraceInterval = *stride
	start := time.Now()
	res, err := experiments.Trace(p, *benchName, *policy, *stride)
	if err != nil {
		sinks.Close()
		fatal(err)
	}
	wall := time.Since(start)

	if *svgPath != "" {
		svg := experiments.TraceChart(res, "hottest block (C)", "fetch duty (100=off..111.5=full)")
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *svgPath)
	}

	if *heatPath != "" {
		svg := experiments.PeakHeatmap(res,
			fmt.Sprintf("%s peak temperatures under %s (C)", res.Benchmark, res.Policy),
			map[string]float64{"D": bench.EmergencyTemp, "D-1": bench.NonCTTrigger})
		if err := os.WriteFile(*heatPath, []byte(svg), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *heatPath)
	}

	if *svgPath == "" && *heatPath == "" {
		fmt.Print("cycle,hottest,duty")
		for _, b := range res.Blocks {
			fmt.Printf(",%s", b.Name)
		}
		fmt.Println()
		for i := range res.TempTrace.Xs {
			fmt.Printf("%d,%.4f,%.4f", res.TempTrace.Xs[i], res.TempTrace.Ys[i], res.DutyTrace.Ys[i])
			for _, s := range res.BlockTrace {
				fmt.Printf(",%.4f", s.Ys[i])
			}
			fmt.Println()
		}
	}
	fmt.Fprintf(os.Stderr, "%s under %s: IPC=%.3f emerg=%.2f%% avg duty=%.2f (%d cycles in %v, %.2g cycles/s)\n",
		res.Benchmark, res.Policy, res.IPC, 100*res.EmergencyFrac(), res.AvgDuty,
		res.Cycles, wall.Round(time.Millisecond), float64(res.Cycles)/wall.Seconds())
	if err := sinks.Close(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
