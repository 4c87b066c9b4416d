package main

import (
	"os"
	"strconv"
	"strings"
	"testing"
)

// paperTable is one table of tables_output.txt: its header fields and its
// rows split on whitespace.
type paperTable struct {
	header []string
	rows   [][]string
}

// readPaperTables parses the committed tables_output.txt into tables by
// number. The file is only read.
func readPaperTables(t *testing.T) map[int]*paperTable {
	t.Helper()
	raw, err := os.ReadFile("../../tables_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	tables := map[int]*paperTable{}
	for _, sec := range strings.Split(string(raw), "\n=== Table ")[1:] {
		lines := strings.Split(strings.TrimRight(sec, "\n"), "\n")
		n, err := strconv.Atoi(sec[:strings.IndexByte(sec, ':')])
		if err != nil || len(lines) < 3 || strings.Trim(lines[2], "-") != "" {
			t.Fatalf("tables_output.txt: malformed section %q", lines[0])
		}
		tab := &paperTable{header: strings.Fields(lines[1])}
		for _, l := range lines[3:] {
			tab.rows = append(tab.rows, strings.Fields(l))
		}
		tables[n] = tab
	}
	for _, n := range []int{4, 9, 10, 11, 12, 13, 14} {
		if tables[n] == nil {
			t.Fatalf("tables_output.txt has no Table %d", n)
		}
	}
	return tables
}

// num parses a table cell, dropping a trailing "%" or "x" and the
// parentheses of Table 11's emergency residency.
func num(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimRight(strings.Trim(cell, "()"), "%x"), 64)
	if err != nil {
		t.Fatalf("cell %q is not a number", cell)
	}
	return v
}

// row returns the row whose first cell is key.
func (tab *paperTable) row(t *testing.T, key string) []string {
	t.Helper()
	for _, r := range tab.rows {
		if r[0] == key {
			return r
		}
	}
	t.Fatalf("no row %q", key)
	return nil
}

// TestPaperClaims checks the paper's claims, as inequalities, on the
// committed tables_output.txt. It simulates nothing: the paper-tables CI
// job proves the file is what cmd/tables prints at the default budget, so
// a change that regenerates the file must keep these claims true.
func TestPaperClaims(t *testing.T) {
	tabs := readPaperTables(t)

	// Table 12 columns: policy, mean % of base IPC, mean loss, loss vs
	// toggle1, emergency cycles.
	t12 := tabs[12]
	pct := map[string]float64{}
	vsToggle := map[string]float64{}
	emerg := map[string]float64{}
	for _, r := range t12.rows {
		pct[r[0]], vsToggle[r[0]], emerg[r[0]] = num(t, r[1]), num(t, r[3]), num(t, r[4])
	}

	// noResidency fails for every Table 11 row that spends time in
	// emergency under pol. Table 11 cells are "98.1% (0.00%)", so each
	// policy spans two fields.
	noResidency := func(t *testing.T, pol string) {
		t11 := tabs[11]
		for k, p := range t11.header[1:] {
			if p != pol {
				continue
			}
			for _, r := range t11.rows {
				if v := num(t, r[2+2*k]); v != 0 {
					t.Errorf("Table 11: %s under %s spends %v%% in emergency", r[0], pol, v)
				}
			}
			return
		}
		t.Errorf("Table 11 has no %s column", pol)
	}

	t.Run("PI and PID see no emergency at 111.1 C", func(t *testing.T) {
		for _, pol := range []string{"PI", "PID"} {
			if emerg[pol] != 0 {
				t.Errorf("Table 12: %s has %v emergency cycles", pol, emerg[pol])
			}
			noResidency(t, pol)
		}
	})

	t.Run("toggle1 removes emergencies, toggle2 does not", func(t *testing.T) {
		if emerg["toggle1"] != 0 {
			t.Errorf("Table 12: toggle1 has %v emergency cycles", emerg["toggle1"])
		}
		noResidency(t, "toggle1")
		if emerg["toggle2"] == 0 {
			t.Error("Table 12: toggle2 has no emergency cycles")
		}
	})

	t.Run("retained performance toggle1 < toggle2 ~ M < P < PI < PID", func(t *testing.T) {
		if !(pct["toggle1"] < pct["toggle2"] && pct["toggle1"] < pct["M"]) {
			t.Errorf("Table 12: toggle1 %v%% does not trail toggle2 %v%% and M %v%%", pct["toggle1"], pct["toggle2"], pct["M"])
		}
		if d := pct["toggle2"] - pct["M"]; d > 0.5 || d < -0.5 {
			t.Errorf("Table 12: toggle2 %v%% and M %v%% differ by more than 0.5 points", pct["toggle2"], pct["M"])
		}
		for _, pair := range [][2]string{{"toggle2", "P"}, {"M", "P"}, {"P", "PI"}, {"PI", "PID"}} {
			if !(pct[pair[0]] < pct[pair[1]]) {
				t.Errorf("Table 12: %s %v%% does not trail %s %v%%", pair[0], pct[pair[0]], pair[1], pct[pair[1]])
			}
		}
	})

	// The paper cuts toggle1's loss by 65% (0.35x). The reproduction has
	// read 0.20-0.54x across model revisions (EXPERIMENTS.md); the band
	// asks for a cut of 40-80%, with PID at least as good as PI.
	t.Run("PI and PID loss vs toggle1 in band", func(t *testing.T) {
		for _, pol := range []string{"PI", "PID"} {
			if v := vsToggle[pol]; v < 0.20 || v > 0.60 {
				t.Errorf("Table 12: %s loss vs toggle1 %vx outside [0.20, 0.60]", pol, v)
			}
		}
		if vsToggle["PID"] > vsToggle["PI"] {
			t.Errorf("Table 12: PID loss vs toggle1 %vx above PI's %vx", vsToggle["PID"], vsToggle["PI"])
		}
	})

	t.Run("Table 13: higher setpoint retains more, both emergency-free", func(t *testing.T) {
		at := map[string]float64{}
		for _, r := range tabs[13].rows {
			at[r[0]+"@"+r[1]] = num(t, r[2])
			if v := num(t, r[3]); v != 0 {
				t.Errorf("Table 13: %s at %s has %v emergency cycles", r[0], r[1], v)
			}
		}
		for _, pol := range []string{"PI", "PID"} {
			hi, lo := at[pol+"@111.1"], at[pol+"@110.6"]
			if hi == 0 || lo == 0 {
				t.Fatalf("Table 13: %s lacks a 111.1 or 110.6 row", pol)
			}
			if !(hi > lo) {
				t.Errorf("Table 13: %s retains %v%% at 111.1, not above %v%% at 110.6", pol, hi, lo)
			}
		}
	})

	// Tables 9/10 columns: benchmark, emerg cycles, then missed/false per
	// window (10K, 500K).
	t.Run("Tables 9/10: proxies miss emergencies the RC model sees", func(t *testing.T) {
		for _, n := range []int{9, 10} {
			tab := tabs[n]
			for w, col := range []int{2, 4} {
				missed := false
				for _, r := range tab.rows {
					missed = missed || (num(t, r[1]) > 0 && num(t, r[col]) > 0)
				}
				if !missed {
					t.Errorf("Table %d: the %s proxy misses no emergency", n, tab.header[3+2*w])
				}
			}
			art := tab.row(t, "art")
			if short, long := num(t, art[2]), num(t, art[4]); !(long >= 50 && long > short) {
				t.Errorf("Table %d: the 500K window misses %v%% of art's emergencies (10K: %v%%), want at least half and more than 10K",
					n, long, short)
			}
		}
	})

	// The paper's suite has 8 benchmarks with emergencies; this one has
	// 6 (EXPERIMENTS.md).
	t.Run("emergency set in band", func(t *testing.T) {
		set := 0
		for _, r := range tabs[4].rows {
			hot := num(t, r[4]) > 0
			if cycles := num(t, tabs[9].row(t, r[0])[1]); hot != (cycles > 0) {
				t.Errorf("%s: Table 4 > D %s%% but Table 9 counts %v emergency cycles", r[0], r[4], cycles)
			}
			if hot {
				set++
			}
		}
		if set < 6 || set > 8 {
			t.Errorf("%d of %d benchmarks see emergencies, want 6 to 8", set, len(tabs[4].rows))
		}
	})

	// Table 14 columns: scenario, cores, policy, ipc, % of none, emerg %, ...
	t.Run("Table 14: PID and budget hold zero emergency, agi at most none", func(t *testing.T) {
		none := map[string]float64{}
		for _, r := range tabs[14].rows {
			if r[2] == "none" {
				none[r[0]+"/"+r[1]] = num(t, r[5])
			}
		}
		for _, r := range tabs[14].rows {
			cell, v := r[0]+"/"+r[1], num(t, r[5])
			switch r[2] {
			case "PID", "budget":
				if v != 0 {
					t.Errorf("Table 14: %s under %s spends %v%% in emergency", cell, r[2], v)
				}
			case "agi":
				if v > none[cell] {
					t.Errorf("Table 14: %s under agi spends %v%% in emergency, above none's %v%%", cell, v, none[cell])
				}
			}
		}
	})
}
