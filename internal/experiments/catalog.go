package experiments

// A cache directory as one store, and the catalog-backed report tables.
// The tables render from run history (the dimension-indexed catalog every
// -cache-dir run feeds) instead of fresh simulation, so they are instant
// and cover every operating point ever executed against the store — the
// raw material for the paper's pareto and sensitivity discussions without
// re-running the grids.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Store is one cache directory: the run cache over its pack volumes and
// the run catalog at <dir>/catalog, which indexes every result the cache
// stores.
type Store struct {
	Cache   *runner.Cache[*sim.Result]
	Catalog *runindex.Catalog
}

// OpenStore opens the cache directory dir (created if missing). An empty
// catalog over a populated pack store (a directory written before the
// catalog existed, or a lost catalog log) is rebuilt from a store scan,
// and from then on every cache Put is ingested. reg, when non-nil,
// receives the cache and catalog metrics.
func OpenStore(dir string, reg *telemetry.Registry) (*Store, error) {
	var (
		cm *telemetry.CacheMetrics
		im *telemetry.IndexMetrics
	)
	if reg != nil {
		cm, im = telemetry.NewCacheMetrics(reg), telemetry.NewIndexMetrics(reg)
	}
	cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: dir}, cm)
	if err != nil {
		return nil, err
	}
	cat, err := runindex.Open(filepath.Join(dir, "catalog"), runindex.Options{Metrics: im})
	if err == nil && cat.Len() == 0 {
		if _, err = cat.RebuildFromStore(cache.Store()); err != nil {
			cat.Close()
			err = fmt.Errorf("experiments: rebuilding the run catalog: %w", err)
		}
	}
	if err != nil {
		cache.Close()
		return nil, err
	}
	cache.SetIngest(func(key string, res *sim.Result) {
		cat.Ingest(runindex.FromResult(key, res))
	})
	return &Store{Cache: cache, Catalog: cat}, nil
}

// Close closes the cache and the catalog.
func (s *Store) Close() error {
	return errors.Join(s.Cache.Close(), s.Catalog.Close())
}

// catalogRows snapshots every cataloged run.
func catalogRows(cat *runindex.Catalog) []runindex.Record {
	q := runindex.Query{Limit: cat.Len()}
	return cat.Run(&q).Rows
}

func policyName(p string) string {
	if p == "" {
		return "none"
	}
	return p
}

// CatalogSummary rolls the catalog up per benchmark x policy: run count
// and mean headline metrics.
func CatalogSummary(cat *runindex.Catalog) *stats.Table {
	type agg struct {
		n                 int
		ipc, power, emerg float64
	}
	groups := map[string]*agg{}
	for _, r := range catalogRows(cat) {
		k := r.Bench + "/" + policyName(r.Policy)
		g := groups[k]
		if g == nil {
			g = &agg{}
			groups[k] = g
		}
		g.n++
		g.ipc += r.IPC
		g.power += r.AvgPower
		g.emerg += r.EmergFrac
	}
	t := &stats.Table{Header: []string{"benchmark/policy", "runs", "mean IPC", "mean power (W)", "mean emerg"}}
	for _, k := range stats.SortedKeys(groups) {
		g := groups[k]
		n := float64(g.n)
		t.AddRow(k, fmt.Sprintf("%d", g.n),
			fmt.Sprintf("%.4f", g.ipc/n),
			fmt.Sprintf("%.2f", g.power/n),
			stats.Percent(g.emerg/n))
	}
	return t
}

// CatalogPareto returns, per benchmark, the cataloged runs on the
// IPC / emergency-residency pareto frontier: no other run of the same
// benchmark has both higher IPC and lower emergency residency.
func CatalogPareto(cat *runindex.Catalog) *stats.Table {
	byBench := map[string][]runindex.Record{}
	for _, r := range catalogRows(cat) {
		byBench[r.Bench] = append(byBench[r.Bench], r)
	}
	t := &stats.Table{Header: []string{"benchmark", "policy", "trigger", "interval", "IPC", "emerg", "power (W)"}}
	for _, b := range stats.SortedKeys(byBench) {
		rows := byBench[b]
		// Walk in order of rising emergency residency; a run joins the
		// frontier only by beating every safer run's IPC.
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].EmergFrac != rows[j].EmergFrac {
				return rows[i].EmergFrac < rows[j].EmergFrac
			}
			return rows[i].IPC > rows[j].IPC
		})
		best := -1.0
		for i := range rows {
			r := &rows[i]
			if r.IPC <= best {
				continue
			}
			best = r.IPC
			t.AddRow(b, policyName(r.Policy),
				fmt.Sprintf("%.1f", r.Trigger),
				fmt.Sprintf("%.0f", r.Interval),
				fmt.Sprintf("%.4f", r.IPC),
				stats.Percent(r.EmergFrac),
				fmt.Sprintf("%.2f", r.AvgPower))
		}
	}
	return t
}

// CatalogSensitivity buckets cataloged runs by their exact value along
// one indexed dimension and reports mean headline metrics per value —
// the sweep CSVs reconstructed from history.
func CatalogSensitivity(cat *runindex.Catalog, dim runindex.Dim) *stats.Table {
	type agg struct {
		n                int
		ipc, emerg, duty float64
	}
	groups := map[float64]*agg{}
	for _, r := range catalogRows(cat) {
		v := r.DimValue(dim)
		g := groups[v]
		if g == nil {
			g = &agg{}
			groups[v] = g
		}
		g.n++
		g.ipc += r.IPC
		g.emerg += r.EmergFrac
		g.duty += r.AvgDuty
	}
	vals := make([]float64, 0, len(groups))
	for v := range groups {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	t := &stats.Table{Header: []string{dim.String(), "runs", "mean IPC", "mean emerg", "mean duty"}}
	for _, v := range vals {
		g := groups[v]
		n := float64(g.n)
		t.AddRow(fmt.Sprintf("%g", v), fmt.Sprintf("%d", g.n),
			fmt.Sprintf("%.4f", g.ipc/n),
			stats.Percent(g.emerg/n),
			fmt.Sprintf("%.3f", g.duty/n))
	}
	return t
}
