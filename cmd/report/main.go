// Command report regenerates the full reproduction bundle into a
// directory: every table as text, the headline figures as SVG, and a
// REPORT.md tying them together. It is the scripted equivalent of running
// cmd/tables and `dtmsim -trace 2000 -svg -heatmap` by hand.
//
//	report -out results -insts 2000000
package main

import (
	"flag"
	"fmt"
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
	var (
		out   = flag.String("out", "results", "output directory")
		insts = flag.Uint64("insts", 1_000_000, "committed instructions per run")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	p := experiments.DefaultParams()
	p.Insts = *insts

	var md strings.Builder
	fmt.Fprintf(&md, "# Reproduction report\n\nGenerated %s at %d instructions/run.\n\n",
		time.Now().Format(time.RFC3339), *insts)

	writeTable := func(name, title string, t *stats.Table) {
		path := filepath.Join(*out, name+".txt")
		if err := os.WriteFile(path, []byte(t.String()), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(&md, "## %s\n\n```\n%s```\n\n", title, t.String())
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	writeTable("table02_config", "Table 2 — machine configuration", experiments.Table2())
	writeTable("table03_thermal", "Table 3 — thermal parameters", experiments.Table3())
	writeTable("table05_categories", "Table 5 — thermal categories", experiments.Table5())

	// The tables and the figure traces share one suite: each distinct
	// run simulates once, in one gang per benchmark.
	figs := []struct{ benchName, policy string }{
		{"gcc", "none"}, {"gcc", "toggle1"}, {"gcc", "PI"}, {"art", "none"},
	}
	suite := experiments.NewSuite(p)
	base := suite.Baseline()
	proxies := suite.ProxyTables(nil)
	eval := suite.PolicyEval()
	traces := make([]func() []*sim.Result, len(figs))
	for i, fig := range figs {
		traces[i] = suite.Trace([]string{fig.benchName}, fig.policy, 0, 2000)
	}
	fmt.Fprintln(os.Stderr, "running the solo suite...")
	if err := suite.Run(); err != nil {
		fatal(err)
	}

	b := base()
	writeTable("table04_characterization", "Table 4 — characterization", experiments.Table4(b))
	writeTable("table06_per_structure", "Table 6 — per-structure temperatures", experiments.Table6(b))
	writeTable("table07_emergency", "Table 7 — per-structure emergency residency", experiments.Table7(b))
	writeTable("table08_stress", "Table 8 — per-structure stress residency", experiments.Table8(b))

	ps, cw := proxies()
	writeTable("table09_proxy_struct", "Table 9 — per-structure boxcar proxy", ps)
	writeTable("table10_proxy_chip", "Table 10 — chip-wide boxcar proxy", cw)

	ev := eval()
	writeTable("table11_policies", "Table 11 — DTM policy evaluation", ev.Table11())
	writeTable("table12_headline", "Table 12 — headline aggregate", ev.Table12())

	fmt.Fprintln(os.Stderr, "rendering figures...")
	for i, fig := range figs {
		res := traces[i]()[0]
		svg := experiments.TraceChart(res, "hottest block", "duty (scaled)")
		name := fmt.Sprintf("trace_%s_%s.svg", fig.benchName, fig.policy)
		if err := os.WriteFile(filepath.Join(*out, name), []byte(svg), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(&md, "![%s](%s)\n\n", name, name)

		heat := experiments.PeakHeatmap(res,
			fmt.Sprintf("%s/%s peak temperatures (C)", fig.benchName, fig.policy),
			map[string]float64{"D": bench.EmergencyTemp})
		hname := fmt.Sprintf("heat_%s_%s.svg", fig.benchName, fig.policy)
		if err := os.WriteFile(filepath.Join(*out, hname), []byte(heat), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(&md, "![%s](%s)\n\n", hname, hname)
	}

	if err := os.WriteFile(filepath.Join(*out, "REPORT.md"), []byte(md.String()), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "report complete: %s/REPORT.md\n", *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
