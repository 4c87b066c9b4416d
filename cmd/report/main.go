// Command report regenerates the full reproduction bundle into a
// directory: every table (2–14) as text, the headline figures as SVG,
// and a REPORT.md tying them together. It is the scripted equivalent of
// running cmd/tables and `dtmsim -trace 2000 -svg -heatmap` by hand.
//
//	report -out results -insts 2000000
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the bundle under -out
// and progress to stderr, and returns the exit code. stdout is unused:
// everything the command produces is a file.
func run(args []string, _ io.Writer, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out   = fs.String("out", "results", "output directory")
		insts = fs.Uint64("insts", 1_000_000, "committed instructions per run")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := report(*out, *insts, stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// report writes the bundle into dir at insts instructions per run.
func report(dir string, insts uint64, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p := experiments.DefaultParams()
	p.Insts = insts

	var md strings.Builder
	fmt.Fprintf(&md, "# Reproduction report\n\nGenerated %s at %d instructions/run.\n\n",
		time.Now().Format(time.RFC3339), insts)

	writeTable := func(name, title string, t *stats.Table) error {
		path := filepath.Join(dir, name+".txt")
		if err := os.WriteFile(path, []byte(t.String()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&md, "## %s\n\n```\n%s```\n\n", title, t.String())
		fmt.Fprintf(stderr, "wrote %s\n", path)
		return nil
	}

	// The tables and the figure traces share one suite: each distinct
	// run simulates once, in one gang per benchmark.
	figs := []struct{ benchName, policy string }{
		{"gcc", "none"}, {"gcc", "toggle1"}, {"gcc", "PI"}, {"art", "none"},
	}
	suite := experiments.NewSuite(p)
	base := suite.Baseline()
	proxies := suite.ProxyTables(nil)
	eval := suite.PolicyEval()
	setp := suite.SetpointStudy()
	traces := make([]func() []*sim.Result, len(figs))
	for i, fig := range figs {
		traces[i] = suite.Trace([]string{fig.benchName}, fig.policy, 0, 2000)
	}
	fmt.Fprintln(stderr, "running the solo suite...")
	if err := suite.Run(); err != nil {
		return err
	}
	fmt.Fprintln(stderr, "running the multicore face-off...")
	faceOff, err := experiments.MulticoreFaceOff(p, []int{1, 2, 4})
	if err != nil {
		return err
	}

	b := base()
	ps, cw := proxies()
	ev := eval()
	for _, t := range []struct {
		name, title string
		table       *stats.Table
	}{
		{"table02_config", "Table 2 — machine configuration", experiments.Table2()},
		{"table03_thermal", "Table 3 — thermal parameters", experiments.Table3()},
		{"table04_characterization", "Table 4 — characterization", experiments.Table4(b)},
		{"table05_categories", "Table 5 — thermal categories", experiments.Table5()},
		{"table06_per_structure", "Table 6 — per-structure temperatures", experiments.Table6(b)},
		{"table07_emergency", "Table 7 — per-structure emergency residency", experiments.Table7(b)},
		{"table08_stress", "Table 8 — per-structure stress residency", experiments.Table8(b)},
		{"table09_proxy_struct", "Table 9 — per-structure boxcar proxy", ps},
		{"table10_proxy_chip", "Table 10 — chip-wide boxcar proxy", cw},
		{"table11_policies", "Table 11 — DTM policy evaluation", ev.Table11()},
		{"table12_headline", "Table 12 — headline aggregate", ev.Table12()},
		{"table13_setpoint", "Table 13 — PI/PID setpoint sensitivity", setp()},
		{"table14_multicore", "Table 14 — multicore controller face-off", faceOff},
	} {
		if err := writeTable(t.name, t.title, t.table); err != nil {
			return err
		}
	}

	fmt.Fprintln(stderr, "rendering figures...")
	for i, fig := range figs {
		res := traces[i]()[0]
		svg := experiments.TraceChart(res, "hottest block", "duty (scaled)")
		name := fmt.Sprintf("trace_%s_%s.svg", fig.benchName, fig.policy)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&md, "![%s](%s)\n\n", name, name)

		heat := experiments.PeakHeatmap(res,
			fmt.Sprintf("%s/%s peak temperatures (C)", fig.benchName, fig.policy),
			map[string]float64{"D": bench.EmergencyTemp})
		hname := fmt.Sprintf("heat_%s_%s.svg", fig.benchName, fig.policy)
		if err := os.WriteFile(filepath.Join(dir, hname), []byte(heat), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(&md, "![%s](%s)\n\n", hname, hname)
	}

	if err := os.WriteFile(filepath.Join(dir, "REPORT.md"), []byte(md.String()), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "report complete: %s/REPORT.md\n", dir)
	return nil
}
