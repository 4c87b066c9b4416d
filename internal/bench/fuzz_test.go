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

// FuzzParseBatch: ParseBatch never panics on a /batch query, rejects any
// query carrying a kind key, and Cells builds every cell of a grid it
// accepts, so a validated batch cannot fail on its parameters once it has
// started. Seeds live in testdata/fuzz/FuzzParseBatch.
func FuzzParseBatch(f *testing.F) {
	defPolicies := []string{"toggle1", "toggle2", "M", "P", "PI", "PID"}
	f.Fuzz(func(t *testing.T, raw string, defInsts uint64) {
		q, _ := url.ParseQuery(raw) // as url.URL.Query: keep what parses
		bq, err := ParseBatch(q, defPolicies, defInsts)
		if err != nil {
			return
		}
		if q.Has("kind") {
			t.Fatalf("query %q carries kind= and was accepted as %+v", raw, bq)
		}
		if bq.Insts == 0 || len(bq.Benches) == 0 || len(bq.Policies) == 0 {
			t.Fatalf("query %q accepted as an empty grid %+v", raw, bq)
		}
		cells, cfgs, err := bq.Cells()
		if err != nil {
			t.Fatalf("query %q accepted, but Cells fails: %v", raw, err)
		}
		if len(cells) != len(bq.Benches)*len(bq.Policies) || len(cfgs) != len(cells) {
			t.Fatalf("query %q: %d cells, %d configs for a %dx%d grid", raw, len(cells), len(cfgs), len(bq.Benches), len(bq.Policies))
		}
		for i, c := range cells {
			b, p := bq.Benches[i/len(bq.Policies)], bq.Policies[i%len(bq.Policies)]
			if c.Bench != b || c.Policy != p || cfgs[i].MaxInsts != bq.Insts || cfgs[i].Workload.Name != b {
				t.Fatalf("query %q: cell %d is %+v with budget %d for %q, want %s/%s", raw, i, c, cfgs[i].MaxInsts, cfgs[i].Workload.Name, b, p)
			}
		}
	})
}
