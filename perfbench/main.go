// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds cmd/tables, cmd/sweep, cmd/serve and this harness,
// then runs it. One invocation measures one workload:
//
//	bash perfbench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it drives the shipped commands as subprocesses and prints
// the end-to-end metrics; with --trace 1 it times the public calls of each
// internal layer on recorded inputs and prints the per-layer metrics. The
// last line of standard output is always one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {"ns_per_cfg_cycle": {"value": 407.9, "unit": "ns"}, ...}}
//
// Two helper modes share the binary:
//
//	bash perfbench/run.sh compare parent.jsonl change.jsonl   # paired-run verdicts
//	bash perfbench/run.sh refs                                # regenerate refs.json
//
// See README.md for the workloads, metrics and the layer map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		logf("metric %s had no samples; reporting 0", name)
		v = 0
	}
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// env is what every workload needs to know about the checkout.
type env struct {
	root     string // repository checkout
	bin      string // directory holding the built commands
	work     string // scratch directory for stores and run copies
	workload string
	seed     uint64
	seconds  time.Duration
}

func (e *env) cmd(name string) string { return filepath.Join(e.bin, name) }

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout")
		bin      = flag.String("bin", ".bench_build/bin", "directory holding the built tables, sweep and serve commands")
		work     = flag.String("work", ".bench_build/work", "scratch directory")
		workload = flag.String("workload", "", "tables | sweep | serve")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	e := &env{root: *root, bin: *bin, work: *work, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second}

	var err error
	switch args := flag.Args(); {
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:], filepath.Join(e.root, "BENCHMARK.json"), os.Stdout)
	case len(args) > 0 && args[0] == "refs":
		err = writeRefs(e)
	case len(args) > 0:
		err = fmt.Errorf("unknown mode %q", args[0])
	default:
		err = runWorkload(e, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func runWorkload(e *env, trace int) error {
	if e.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	for _, name := range []string{"tables", "sweep", "serve"} {
		if _, err := os.Stat(e.cmd(name)); err != nil {
			return fmt.Errorf("missing built command: %w", err)
		}
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	var (
		res *result
		err error
	)
	run := map[string]func(*env) (*result, error){
		"tables": runTables,
		"sweep":  runSweep,
		"serve":  runServed,
	}[e.workload]
	switch {
	case run == nil:
		return fmt.Errorf("unknown workload %q (tables | sweep | serve)", e.workload)
	case trace == 0:
		res, err = run(e)
	case trace == 1:
		res, err = runTraced(e)
	default:
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if err != nil {
		return err
	}
	if err := checkMetricSet(e, res, trace); err != nil {
		return err
	}
	res.Correct = res.Correct && res.Failed == 0 && res.Attempted > 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// checkMetricSet fails the run when it reports other metrics than
// BENCHMARK.json lists for its mode, so the two cannot drift apart.
func checkMetricSet(e *env, res *result, trace int) error {
	data, err := os.ReadFile(filepath.Join(e.root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if trace == 1 {
		want = spec.PerLayer
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			return fmt.Errorf("metric %s (%s) missing or in another unit", m.Name, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	return nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func itoa(n uint64) string { return strconv.FormatUint(n, 10) }
