package sim

// Content-addressed fingerprinting of a simulation configuration, the key
// of the batch-level run cache (internal/runner.Cache). Two configurations
// hash identically exactly when they describe the same deterministic run:
// the workload identity (profile and seed), the machine configuration, the
// DTM policy with its full tuning — including the controller's runtime
// state, so a dirty (non-reset) controller conservatively misses — and the
// instruction/cycle budgets.
//
// The encoder walks the configuration reflectively, so new fields are
// hashed by default; fields that must NOT contribute to the key (telemetry
// sinks and their labeling, which do not affect the simulated trajectory)
// are listed in cacheKeyExcluded, and TestCacheKeyCoversConfig fails when
// Config or MulticoreConfig grows a field that has not been explicitly
// classified.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"reflect"
	"sort"
)

// modelVersion salts every run-cache key with the simulator's behaviour:
// pack volumes and catalog logs outlive the build that wrote them, and an
// older build's result must not be served as current. It is the first 16
// hex digits of the SHA-256 of testdata/golden.json followed by
// testdata/golden_multicore.json, so a behaviour change that regenerates
// the goldens must bump it (TestModelVersionTracksGoldens), and the old
// cache entries become clean misses.
const modelVersion = "30c657bd4861d760"

// cacheKeyExcluded lists the Config fields deliberately left out of the
// fingerprint. Metrics and Trace are live side-channel sinks: runs that
// stream telemetry are not cacheable at all (replaying a cached result
// would silently drop their samples), so CacheKey rejects them, and the
// trace labeling knobs that ride along are meaningless without them.
var cacheKeyExcluded = map[string]bool{
	"Metrics":       true,
	"Trace":         true,
	"TraceInterval": true,
	"TraceID":       true,
}

// CacheKey returns a collision-resistant content hash of cfg for use as a
// run-cache key, and whether the configuration is cacheable at all. Runs
// with live telemetry sinks attached (Metrics or Trace) report ok=false:
// their side effects happen during simulation and cannot be replayed from
// a cached result.
func CacheKey(cfg Config) (key string, ok bool) {
	if cfg.Metrics != nil || cfg.Trace != nil {
		return "", false
	}
	return fingerprint(reflect.ValueOf(cfg), cacheKeyExcluded), true
}

// MulticoreCacheKey returns the content hash of a multicore configuration,
// keying multicore runs the way CacheKey keys solo ones. MulticoreConfig
// carries no telemetry sink, so every field is hashed and every
// configuration is cacheable. Solo and multicore keys cannot collide: the
// two encodings start with different field names.
func MulticoreCacheKey(cfg MulticoreConfig) string {
	return fingerprint(reflect.ValueOf(cfg), nil)
}

// fingerprint hashes modelVersion, then the fields of the struct v not
// named in excluded.
func fingerprint(v reflect.Value, excluded map[string]bool) string {
	h := sha256.New()
	fmt.Fprintf(h, "model=%s;", modelVersion)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		if excluded[t.Field(i).Name] {
			continue
		}
		fmt.Fprintf(h, "%s=", t.Field(i).Name)
		hashValue(h, v.Field(i))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashValue canonically encodes v into h. Every kind that can appear in a
// Config is handled; unexported fields are read through kind-specific
// accessors (never Interface), so private policy/controller state hashes
// too. Unhashable kinds (funcs, channels) panic: a config carrying one
// cannot be content-addressed, and the panic turns a silent wrong-key bug
// into an immediate test failure.
func hashValue(h hash.Hash, v reflect.Value) {
	if !v.IsValid() {
		h.Write([]byte("z;"))
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		fmt.Fprintf(h, "b%t;", v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(h, "i%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprintf(h, "u%d;", v.Uint())
	case reflect.Float32, reflect.Float64:
		// Bit-exact: distinguishes -0/+0 and all NaN payloads, and never
		// loses precision to decimal formatting.
		fmt.Fprintf(h, "f%016x;", math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		fmt.Fprintf(h, "c%016x,%016x;", math.Float64bits(real(c)), math.Float64bits(imag(c)))
	case reflect.String:
		fmt.Fprintf(h, "s%d:%s;", v.Len(), v.String())
	case reflect.Ptr, reflect.Interface:
		if v.IsNil() {
			h.Write([]byte("n;"))
			return
		}
		e := v.Elem()
		// The dynamic type participates: two policies with coincidentally
		// identical field layouts must not collide.
		fmt.Fprintf(h, "p%s{", e.Type().String())
		hashValue(h, e)
		h.Write([]byte("};"))
	case reflect.Slice:
		if v.IsNil() {
			h.Write([]byte("n;"))
			return
		}
		fallthrough
	case reflect.Array:
		fmt.Fprintf(h, "l%d[", v.Len())
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
		h.Write([]byte("];"))
	case reflect.Struct:
		t := v.Type()
		fmt.Fprintf(h, "t%s{", t.String())
		for i := 0; i < t.NumField(); i++ {
			fmt.Fprintf(h, "%s=", t.Field(i).Name)
			hashValue(h, v.Field(i))
		}
		h.Write([]byte("};"))
	case reflect.Map:
		if v.IsNil() {
			h.Write([]byte("n;"))
			return
		}
		if v.Type().Key().Kind() != reflect.String {
			panic(fmt.Sprintf("sim: cannot fingerprint map keyed by %s", v.Type().Key()))
		}
		keys := make([]string, 0, v.Len())
		for _, k := range v.MapKeys() {
			keys = append(keys, k.String())
		}
		sort.Strings(keys)
		fmt.Fprintf(h, "m%d{", len(keys))
		for _, k := range keys {
			fmt.Fprintf(h, "%s=", k)
			hashValue(h, v.MapIndex(reflect.ValueOf(k)))
		}
		h.Write([]byte("};"))
	default:
		panic(fmt.Sprintf("sim: cannot fingerprint %s (kind %s)", v.Type(), v.Kind()))
	}
}
