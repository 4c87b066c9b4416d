package sim_test

// Committed goldens: exact Result snapshots for a fixed configuration
// matrix, compared byte for byte against testdata/. A semantics-preserving
// rewrite of the simulator must leave every marshaled result unchanged
// (encoding/json prints floats in their shortest round-trip form, so equal
// bytes mean bit-equal values). After an intended change to simulated
// results, regenerate the files with
//
//	GOLDEN_OUT=1 go test -run TestGolden ./internal/sim/
//
// and review the diff.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/bench"
	"repro/internal/floorplan"
	"repro/internal/sim"
)

// goldenMulticoreInsts is the per-core budget of the multicore golden:
// tens of controller samples per run.
const goldenMulticoreInsts = 20_000

// goldenMulticoreInit starts every block of the die just above the
// emergency level, so the runs cross both thresholds while cooling (and
// reheating under load) and the per-core and chip-wide emergency and
// stress unions are exercised from the first window.
const goldenMulticoreInit = 111.6

// checkGolden compares got, marshaled, against testdata/name, or rewrites
// that file when GOLDEN_OUT is set.
func checkGolden(t *testing.T, name string, got map[string]any) {
	t.Helper()
	buf, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if os.Getenv("GOLDEN_OUT") != "" {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden entries to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(want, buf) {
		return
	}
	var wantEntries map[string]json.RawMessage
	if err := json.Unmarshal(want, &wantEntries); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var diff []string
	for k, v := range got {
		b, _ := json.MarshalIndent(v, " ", " ") // v marshaled above as part of got
		if !bytes.Equal(b, wantEntries[k]) {
			diff = append(diff, k)
		}
	}
	for k := range wantEntries {
		if _, ok := got[k]; !ok {
			diff = append(diff, k+" (missing)")
		}
	}
	sort.Strings(diff)
	t.Errorf("results diverge from %s in %d entries: %v", path, len(diff), diff)
}

// skipGoldenUnderRace: the goldens pin arithmetic, not concurrency, and the
// full matrices are far too slow under the race detector; CI runs them in
// non-race steps.
func skipGoldenUnderRace(t *testing.T) {
	t.Helper()
	if sim.RaceDetector {
		t.Skip("goldens run in the non-race golden gate")
	}
}

// TestGoldenSolo pins both solo thermal paths: per-cycle Euler and the
// macro-stepped fast path.
func TestGoldenSolo(t *testing.T) {
	skipGoldenUnderRace(t)
	got := map[string]any{}
	for name, cfg := range sim.GoldenMatrix() {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e := struct {
			Result *sim.Result
			Trace  []float64 // flattened TempTrace Ys when present
		}{Result: res}
		if res.TempTrace != nil {
			e.Trace = res.TempTrace.Ys
		}
		got[name] = e
	}
	a, _ := json.Marshal(got["hot/pi+telemetry"])
	b, _ := json.Marshal(got["hot/pi"])
	if !bytes.Equal(a, b) {
		t.Error("telemetry sinks changed the hot/pi result")
	}
	checkGolden(t, "golden.json", got)
}

// TestGoldenMulticore pins the multicore engine on both thermal paths over
// two core-interaction scenarios, three core counts and every controller
// family, each from a die seeded above the emergency level.
func TestGoldenMulticore(t *testing.T) {
	skipGoldenUnderRace(t)
	got := map[string]any{}
	for _, scenario := range []string{"hotneighbor", "staggered"} {
		for _, cores := range []int{1, 2, 4} {
			for _, policy := range bench.MulticorePolicies() {
				for _, stride := range []uint64{1, 0} {
					cfg, err := bench.NewMulticoreRun(scenario, policy, cores, goldenMulticoreInsts)
					if err != nil {
						t.Fatal(err)
					}
					cfg.ThermalStride = stride
					cfg.InitTemps = make([]float64, cores*int(floorplan.NumBlocks))
					for i := range cfg.InitTemps {
						cfg.InitTemps[i] = goldenMulticoreInit
					}
					res, err := sim.RunMulticore(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					got[fmt.Sprintf("%s/c%d/%s/stride%d", scenario, cores, policy, stride)] = res
				}
			}
		}
	}
	checkGolden(t, "golden_multicore.json", got)
}
