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
