package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/telemetry"
)

// cacheKeyCovered lists every Config field the fingerprint hashes. The
// union of this list and cacheKeyExcluded must be exactly Config's field
// set: when Config grows a field, this test fails until the field is
// classified — hashed here (almost always right: anything that changes
// the simulated trajectory must change the key) or excluded there (only
// for side-channel sinks that cannot be replayed from a cached result).
var cacheKeyCovered = map[string]bool{
	"Workload":          true,
	"Pipeline":          true,
	"Gating":            true,
	"Leakage":           true,
	"Thresholds":        true,
	"Manager":           true,
	"Scaling":           true,
	"Hierarchy":         true,
	"MaxInsts":          true,
	"MaxCycles":         true,
	"Tangential":        true,
	"ProxyWindows":      true,
	"ChipProxyTriggerW": true,
	"TraceStride":       true,
	"Sensor":            true,
	"CoupleChipSink":    true,
	"ChipAmbient":       true,
	"MonitoredBlocks":   true,
	"InitTemps":         true,
	"ThermalStride":     true,
}

// multicoreKeyCovered lists every MulticoreConfig field. MulticoreCacheKey
// hashes them all (it has no exclusion list); a new field must be added
// here after checking it belongs in the key.
var multicoreKeyCovered = map[string]bool{
	"Workloads":     true,
	"Pipeline":      true,
	"Gating":        true,
	"Thresholds":    true,
	"Managers":      true,
	"DVFS":          true,
	"Budget":        true,
	"Sensors":       true,
	"MaxInsts":      true,
	"MaxCycles":     true,
	"ThermalStride": true,
	"InitTemps":     true,
}

func TestCacheKeyCoversConfig(t *testing.T) {
	mtyp := reflect.TypeOf(MulticoreConfig{})
	for i := 0; i < mtyp.NumField(); i++ {
		if name := mtyp.Field(i).Name; !multicoreKeyCovered[name] {
			t.Errorf("MulticoreConfig.%s is not classified for the run-cache fingerprint: "+
				"MulticoreCacheKey hashes every field, so add it to multicoreKeyCovered "+
				"if it affects the trajectory, or give MulticoreCacheKey an exclusion list", name)
		}
	}
	for name := range multicoreKeyCovered {
		if _, ok := mtyp.FieldByName(name); !ok {
			t.Errorf("multicoreKeyCovered lists %s, which MulticoreConfig no longer has", name)
		}
	}

	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		cov, exc := cacheKeyCovered[name], cacheKeyExcluded[name]
		if cov && exc {
			t.Errorf("Config.%s is both covered and excluded", name)
		}
		if !cov && !exc {
			t.Errorf("Config.%s is not classified for the run-cache fingerprint: "+
				"add it to cacheKeyCovered (it affects the trajectory) or "+
				"cacheKeyExcluded (it is a non-replayable telemetry sink)", name)
		}
	}
	for name := range cacheKeyCovered {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("cacheKeyCovered lists %s, which Config no longer has", name)
		}
	}
	for name := range cacheKeyExcluded {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("cacheKeyExcluded lists %s, which Config no longer has", name)
		}
	}
}

// eligibleConfig is a representative cacheable configuration exercising
// pointer-valued policy state (manager, PI controller) and slices.
func eligibleConfig() Config {
	return Config{
		Workload:     hotProfile(),
		Manager:      piManager(),
		MaxInsts:     100_000,
		ProxyWindows: []int{10_000},
	}
}

// TestModelVersionTracksGoldens ties the cache-key salt to the pinned
// outputs: a change that regenerates the goldens changes the simulated
// results, so it must also bump modelVersion, or caches written by the
// older build would keep serving the old results as current.
func TestModelVersionTracksGoldens(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"testdata/golden.json", "testdata/golden_multicore.json"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if want := hex.EncodeToString(h.Sum(nil))[:16]; modelVersion != want {
		t.Errorf("modelVersion = %q, but the goldens hash to %q: set modelVersion to the new value", modelVersion, want)
	}
}

func TestCacheKeyDeterministic(t *testing.T) {
	k1, ok1 := CacheKey(eligibleConfig())
	k2, ok2 := CacheKey(eligibleConfig())
	if !ok1 || !ok2 {
		t.Fatal("eligible config reported as uncacheable")
	}
	// Two independently constructed identical configs must collide: the
	// hash must canonicalize through pointers, never mix in identities.
	if k1 != k2 {
		t.Fatalf("identical configs hash differently:\n%s\n%s", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base, _ := CacheKey(eligibleConfig())
	mutations := map[string]func(*Config){
		"MaxInsts":      func(c *Config) { c.MaxInsts++ },
		"Tangential":    func(c *Config) { c.Tangential = true },
		"ThermalStride": func(c *Config) { c.ThermalStride = 1 },
		"seed":          func(c *Config) { c.Workload.Seed++ },
		"setpoint": func(c *Config) {
			g := control.MustTune(paperPlant(), control.Spec{Kind: control.KindPI})
			ctl := control.NewPID(g, 110.0, 0.2, float64(dtm.DefaultSampleInterval)/1.5e9)
			c.Manager = dtm.NewManager(dtm.NewCT(control.KindPI, ctl))
		},
		"policy-kind": func(c *Config) {
			c.Manager = dtm.NewManager(dtm.NewToggle1(111.2, 2))
		},
		"nil-manager":  func(c *Config) { c.Manager = nil },
		"proxy-window": func(c *Config) { c.ProxyWindows[0]++ },
	}
	for name, mutate := range mutations {
		cfg := eligibleConfig()
		mutate(&cfg)
		key, ok := CacheKey(cfg)
		if !ok {
			t.Errorf("%s: mutated config reported uncacheable", name)
			continue
		}
		if key == base {
			t.Errorf("%s: mutation does not change the cache key", name)
		}
	}
}

func TestCacheKeyIgnoresTraceLabels(t *testing.T) {
	base, _ := CacheKey(eligibleConfig())
	cfg := eligibleConfig()
	cfg.TraceID = "gcc/PI"
	cfg.TraceInterval = 500
	key, ok := CacheKey(cfg)
	if !ok {
		t.Fatal("trace labels without a recorder must stay cacheable")
	}
	if key != base {
		t.Error("trace labeling knobs leaked into the cache key")
	}
}

func TestCacheKeyRejectsTelemetry(t *testing.T) {
	cfg := eligibleConfig()
	cfg.Metrics = telemetry.NewSimMetrics(telemetry.NewRegistry())
	if _, ok := CacheKey(cfg); ok {
		t.Error("config with live Metrics sink must be uncacheable")
	}
	cfg = eligibleConfig()
	cfg.Trace = telemetry.NewRecorder(discard{}, 13, 256)
	if _, ok := CacheKey(cfg); ok {
		t.Error("config with live Trace sink must be uncacheable")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
