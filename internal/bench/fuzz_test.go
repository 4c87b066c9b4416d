package bench

import (
	"net/url"
	"testing"

	"repro/internal/sim"
)

// FuzzParseRun: ParseRun never panics on a /run query, and every query it
// accepts gives a run of the named benchmark and budget that sim.New
// builds and sim.CacheKey keys, so a served request always reaches the
// simulator and the cache. Seeds live in testdata/fuzz/FuzzParseRun.
func FuzzParseRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw string, defInsts uint64) {
		q, _ := url.ParseQuery(raw) // as url.URL.Query: keep what parses
		rq, cfg, err := ParseRun(q, defInsts)
		if err != nil {
			return
		}
		if rq.Insts == 0 || cfg.MaxInsts != rq.Insts || cfg.Workload.Name != rq.Bench {
			t.Fatalf("query %q accepted as %+v, config budget %d for %q", raw, rq, cfg.MaxInsts, cfg.Workload.Name)
		}
		if _, err := sim.New(cfg); err != nil {
			t.Fatalf("query %q accepted, but sim.New rejects its config: %v", raw, err)
		}
		if _, ok := sim.CacheKey(cfg); !ok {
			t.Fatalf("query %q accepted, but its config has no cache key", raw)
		}
	})
}

// FuzzParseBatch: ParseBatch never panics on a /batch query, and NewRun
// builds every cell of a grid it accepts, so a validated batch cannot fail
// on its parameters once it has started. Seeds live in
// testdata/fuzz/FuzzParseBatch.
func FuzzParseBatch(f *testing.F) {
	defPolicies := []string{"toggle1", "toggle2", "M", "P", "PI", "PID"}
	f.Fuzz(func(t *testing.T, raw string, defInsts uint64) {
		q, _ := url.ParseQuery(raw) // as url.URL.Query: keep what parses
		bq, err := ParseBatch(q, defPolicies, defInsts)
		if err != nil {
			return
		}
		if bq.Insts == 0 || len(bq.Benches) == 0 || len(bq.Policies) == 0 {
			t.Fatalf("query %q accepted as an empty grid %+v", raw, bq)
		}
		for _, b := range bq.Benches {
			for _, p := range bq.Policies {
				cfg, err := NewRun(b, p, bq.Insts)
				if err != nil {
					t.Fatalf("query %q accepted, but NewRun(%q, %q, %d) fails: %v", raw, b, p, bq.Insts, err)
				}
				if cfg.MaxInsts != bq.Insts || cfg.Workload.Name != b {
					t.Fatalf("query %q: cell %s/%s built with budget %d for %q", raw, b, p, cfg.MaxInsts, cfg.Workload.Name)
				}
			}
		}
	})
}
