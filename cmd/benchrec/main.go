// Command benchrec records the repository's performance trajectory: it
// measures the steady-state per-cycle cost of the simulation hot loop
// across feature combinations (allocations must be zero), the wall time
// of a full experiments.Baseline batch serial versus parallel, and the
// run cache cold versus warm over the same batch, then writes the
// numbers as JSON (BENCH_runner.json at the repo root).
//
//	benchrec -out BENCH_runner.json -insts 200000
//
// Re-run after hot-path changes and commit the refreshed JSON so the
// perf history stays in the tree.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/control"
	"repro/internal/dtm"
	"repro/internal/experiments"
	"repro/internal/packstore"
	"repro/internal/power"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// CycleStats is one hot-loop variant's steady-state per-cycle cost.
type CycleStats struct {
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	Cycles         uint64  `json:"cycles_measured"`
}

// BatchStats is one full-suite batch measurement.
type BatchStats struct {
	Workers     int     `json:"workers"`
	Runs        int     `json:"runs"`
	InstsPerRun uint64  `json:"insts_per_run"`
	Seconds     float64 `json:"seconds"`
}

// CacheStats is the run cache measured over one repeated baseline batch:
// a cold pass that simulates and stores everything, then an identical
// warm pass served from the cache.
type CacheStats struct {
	Runs              int     `json:"runs"`
	InstsPerRun       uint64  `json:"insts_per_run"`
	ColdSeconds       float64 `json:"cold_seconds"`
	WarmSeconds       float64 `json:"warm_seconds"`
	SpeedupWarmVsCold float64 `json:"speedup_warm_vs_cold"`
	Hits              int64   `json:"hits"`
	Misses            int64   `json:"misses"`
	StoredBytes       int64   `json:"stored_bytes"`
}

// StoreOpStats is one result-store measurement: sequential puts, then
// uniformly sampled gets with a p99 from per-op timings.
type StoreOpStats struct {
	Entries      int     `json:"entries"`
	PutOpsPerSec float64 `json:"put_ops_per_sec"`
	GetOpsPerSec float64 `json:"get_ops_per_sec"`
	GetP99Micros float64 `json:"get_p99_micros"`
}

// StoreStats measures the pack-volume result store at the run cache's
// small-object regime, plus its cold-start needle-index rebuild over
// the full population.
type StoreStats struct {
	PayloadBytes       int          `json:"payload_bytes"`
	Pack               StoreOpStats `json:"pack"`
	PackRebuildSeconds float64      `json:"pack_cold_rebuild_seconds"`
	PackVolumes        int64        `json:"pack_volumes"`
}

// GangModeStats is one execution mode of the gang lane: the whole
// policy suite on one workload, timed end to end.
type GangModeStats struct {
	Seconds float64 `json:"seconds"`
	// NsPerCycleCfg is wall time over total member cycles — the cost of
	// advancing ONE config by one cycle, the number the gang amortizes.
	NsPerCycleCfg float64 `json:"ns_per_cycle_per_config"`
	// Occupancy is members served per shared pipeline evaluation
	// (solo runs are definitionally 1 and omit it).
	Occupancy float64 `json:"occupancy,omitempty"`
	Forks     int     `json:"forks,omitempty"`
	Merges    int     `json:"merges,omitempty"`
	Classes   int     `json:"final_classes,omitempty"`
}

// GangLaneStats compares the full DTM policy suite run solo against the
// same configs as one gang per workload (byte-identical results),
// aggregated across the measured workloads. Aggregation matters: on cool
// workloads the policies never diverge and a whole gang rides one class,
// while on the hottest workloads every controller forks off early and the
// gang degrades toward solo cost, so the suite-level number is the honest
// one.
type GangLaneStats struct {
	Benchmarks        []string      `json:"benchmarks"`
	InstsPerRun       uint64        `json:"insts_per_run"`
	Policies          int           `json:"policies"`
	Solo              GangModeStats `json:"solo"`
	Gang              GangModeStats `json:"gang"`
	SpeedupGangVsSolo float64       `json:"speedup_gang_vs_solo"`
}

// IndexStats is the run-catalog lane (T1-T5): a population of records
// with realistic dimension spreads is ingested into an on-disk catalog,
// then queried every way the /query endpoint supports. T2's range scan
// and T5's full scan answer the same ~1%-selectivity filter, so their
// ratio is the B+-tree's win over brute force at this population.
type IndexStats struct {
	Records int `json:"records"`

	T1LookupPerSec  float64 `json:"t1_point_lookups_per_sec"`
	T2RangePerSec   float64 `json:"t2_range_queries_per_sec"`
	T2RangeRows     int     `json:"t2_range_rows"`
	T3IngestPerSec  float64 `json:"t3_ingest_records_per_sec"`
	T4CompositeSec  float64 `json:"t4_composite_queries_per_sec"`
	T4CompositeRows int     `json:"t4_composite_rows"`
	T5FullScanSec   float64 `json:"t5_full_scans_per_sec"`

	SpeedupRangeVsScan float64 `json:"speedup_range_vs_full_scan"`
	LogBytes           int64   `json:"log_bytes"`
	ColdReopenSeconds  float64 `json:"cold_reopen_seconds"`
}

// ParallelStats is the fixed-GOMAXPROCS batch reference: the baseline
// suite serial vs parallel with the scheduler pinned to 4 procs, so the
// number is comparable across hosts regardless of their core count (on
// a single-CPU host the speedup honestly sits near 1).
type ParallelStats struct {
	GoMaxProcs      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"num_cpu"`
	Runs            int     `json:"runs"`
	InstsPerRun     uint64  `json:"insts_per_run"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
}

// Report is the BENCH_runner.json schema. v2 added the macro-stepped
// fast path (dtm_pi measures it; dtm_pi_euler keeps the per-cycle Euler
// baseline) and the run-cache cold/warm measurement. v3 normalized
// hot-loop cost by simulated cycles and added a surrogate_suite section
// this command no longer writes. v4 adds the result-store section
// (pack store puts, gets and cold rebuild; refresh it alone with -only
// store). v5 adds the gang-execution lane (policy suite solo vs ganged;
// refresh with -only gang). v6 adds the run-catalog lane
// (point/range/composite queries vs full scan; refresh with -only index)
// and the GOMAXPROCS=4 parallel reference (-only parallel).
type Report struct {
	Schema     string                `json:"schema"`
	Date       string                `json:"date"`
	GoMaxProcs int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"num_cpu"`
	HotLoop    map[string]CycleStats `json:"hot_loop"`
	// Gang is the gang-execution lane (see GangLaneStats).
	Gang    *GangLaneStats `json:"gang,omitempty"`
	Batches []BatchStats   `json:"baseline_batches"`
	// SpeedupParallelVsSerial is parallel wall time over serial wall
	// time for the same batch; bounded by available cores.
	SpeedupParallelVsSerial float64     `json:"speedup_parallel_vs_serial"`
	RunCache                *CacheStats `json:"run_cache,omitempty"`
	ResultStore             *StoreStats `json:"result_store,omitempty"`
	// Index is the run-catalog query lane (see IndexStats).
	Index *IndexStats `json:"run_index,omitempty"`
	// Parallel is the fixed-GOMAXPROCS batch reference (see ParallelStats).
	Parallel *ParallelStats `json:"parallel_reference,omitempty"`
	Notes    string         `json:"notes,omitempty"`
	// SeedReference preserves the pre-engine numbers for comparison.
	SeedReference map[string]any `json:"seed_reference,omitempty"`
}

func hotVariants() map[string]sim.Config {
	plant := control.Plant{K: 12, Tau: 180e-6, Delay: 333.5e-9}
	pi := func() *dtm.Manager {
		g := control.MustTune(plant, control.Spec{Kind: control.KindPI})
		ctl := control.NewPID(g, 111.1, 0.2, float64(dtm.DefaultSampleInterval)/1.5e9)
		return dtm.NewManager(dtm.NewCT(control.KindPI, ctl))
	}
	return map[string]sim.Config{
		"plain":   {},
		"leakage": {Leakage: power.DefaultLeakage()},
		// dtm_pi rides the default macro-stepped fast path (ThermalStride
		// auto); dtm_pi_euler pins the paper's per-cycle Euler solve for a
		// like-for-like before/after comparison.
		"dtm_pi":       {Manager: pi()},
		"dtm_pi_euler": {Manager: pi(), ThermalStride: 1},
		"proxies":      {ProxyWindows: []int{10_000, 100_000}},
		"kitchen":      {Leakage: power.DefaultLeakage(), Manager: pi(), ProxyWindows: []int{10_000}, Tangential: true},
		// Full telemetry attached: metrics bundle plus a JSONL trace
		// recorder at the DTM sampling stride. Guards the acceptance bound
		// that instrumentation stays within a few percent of dtm_pi.
		"instrumented": {
			Manager: pi(),
			Metrics: telemetry.NewSimMetrics(telemetry.NewRegistry()),
			Trace:   telemetry.NewRecorder(io.Discard, 13, 256),
		},
	}
}

// measureCycles times one variant's steady-state loop and counts heap
// allocations across it.
func measureCycles(cfg sim.Config, cycles uint64) (CycleStats, error) {
	prof, err := bench.ByName("gcc")
	if err != nil {
		return CycleStats{}, err
	}
	cfg.Workload = prof
	cfg.MaxInsts = 1 << 60
	cfg.MaxCycles = 1 << 62
	s, err := sim.New(cfg)
	if err != nil {
		return CycleStats{}, err
	}
	for s.Cycle() < 20_000 { // past construction transients
		s.Step()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c0 := s.Cycle()
	start := time.Now()
	for s.Cycle()-c0 < cycles {
		s.Step()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	n := s.Cycle() - c0
	return CycleStats{
		NsPerCycle:     float64(wall.Nanoseconds()) / float64(n),
		AllocsPerCycle: float64(after.Mallocs-before.Mallocs) / float64(n),
		Cycles:         n,
	}, nil
}

// measureGang times the policy suite on the given workloads two ways —
// solo runs and one gang per workload — aggregated into one suite-level
// comparison.
func measureGang(benchNames []string, insts uint64) (GangLaneStats, error) {
	policies := bench.Policies()
	st := GangLaneStats{Benchmarks: benchNames, InstsPerRun: insts, Policies: len(policies)}
	mkCfgs := func(benchName string) ([]sim.Config, error) {
		cfgs := make([]sim.Config, 0, len(policies))
		for _, p := range policies {
			cfg, err := bench.NewRun(benchName, p, insts)
			if err != nil {
				return nil, err
			}
			cfgs = append(cfgs, cfg)
		}
		return cfgs, nil
	}

	var soloCycles, gangCycles, memberCycles, classCycles uint64
	for _, b := range benchNames {
		cfgs, err := mkCfgs(b)
		if err != nil {
			return st, err
		}
		start := time.Now()
		for _, cfg := range cfgs {
			res, err := sim.Run(cfg)
			if err != nil {
				return st, err
			}
			soloCycles += res.Cycles
		}
		st.Solo.Seconds += time.Since(start).Seconds()

		if cfgs, err = mkCfgs(b); err != nil {
			return st, err
		}
		g, err := sim.NewGang(cfgs, sim.GangOptions{})
		if err != nil {
			return st, err
		}
		start = time.Now()
		results, err := g.Run(context.Background())
		if err != nil {
			return st, err
		}
		st.Gang.Seconds += time.Since(start).Seconds()
		for _, r := range results {
			gangCycles += r.Cycles
		}
		gs := g.Stats()
		memberCycles += gs.MemberCycles
		classCycles += gs.ClassCycles
		st.Gang.Forks += gs.Forks
		st.Gang.Merges += gs.Merges
		st.Gang.Classes += gs.Classes
	}
	st.Solo.NsPerCycleCfg = st.Solo.Seconds * 1e9 / float64(soloCycles)
	st.Gang.NsPerCycleCfg = st.Gang.Seconds * 1e9 / float64(gangCycles)
	st.Gang.Occupancy = float64(memberCycles) / float64(classCycles)
	st.SpeedupGangVsSolo = st.Solo.NsPerCycleCfg / st.Gang.NsPerCycleCfg
	return st, nil
}

func measureBatch(insts uint64, workers int) (BatchStats, error) {
	p := experiments.DefaultParams()
	p.Insts = insts
	p.Workers = workers
	p.Context = context.Background()
	start := time.Now()
	res, err := experiments.Baseline(p)
	if err != nil {
		return BatchStats{}, err
	}
	return BatchStats{
		Workers:     workers,
		Runs:        len(res),
		InstsPerRun: insts,
		Seconds:     time.Since(start).Seconds(),
	}, nil
}

// measureCache runs the baseline suite twice against one disk-backed run
// cache: the cold pass simulates and stores, the warm pass replays.
func measureCache(insts uint64) (CacheStats, error) {
	dir, err := os.MkdirTemp("", "benchrec-cache-*")
	if err != nil {
		return CacheStats{}, err
	}
	defer os.RemoveAll(dir)
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: dir}, m)
	if err != nil {
		return CacheStats{}, err
	}
	p := experiments.DefaultParams()
	p.Insts = insts
	p.Context = context.Background()
	p.Cache = cache

	start := time.Now()
	cold, err := experiments.Baseline(p)
	if err != nil {
		return CacheStats{}, err
	}
	coldSec := time.Since(start).Seconds()
	start = time.Now()
	if _, err := experiments.Baseline(p); err != nil {
		return CacheStats{}, err
	}
	warmSec := time.Since(start).Seconds()

	st := CacheStats{
		Runs:        len(cold),
		InstsPerRun: insts,
		ColdSeconds: coldSec,
		WarmSeconds: warmSec,
		Hits:        m.Hits.Value(),
		Misses:      m.Misses.Value(),
		StoredBytes: m.Bytes.Value(),
	}
	if warmSec > 0 {
		st.SpeedupWarmVsCold = coldSec / warmSec
	}
	return st, nil
}

// storePayload is a representative cached run result (a few hundred
// JSON bytes) for the store lane.
var storePayload = []byte(`{"name":"gcc/PI","ipc":0.8732,"cycles":2290432,` +
	`"avg_power":42.17,"max_temp":111.84,"emergency_cycles":18320,` +
	`"temps":[110.2,109.7,108.9,111.1,107.3,109.9,110.6,108.1,109.2,` +
	`110.8,107.9,108.8,110.0]}`)

func storeKey(i int) string { return fmt.Sprintf("bench%059d", i) }

// measureStoreOps populates the store with n entries and times puts,
// then up to 200000 uniformly striding gets with per-op p99.
func measureStoreOps(s *packstore.Store, n int) (StoreOpStats, error) {
	st := StoreOpStats{Entries: n}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := s.Put(storeKey(i), storePayload); err != nil {
			return st, err
		}
	}
	st.PutOpsPerSec = float64(n) / time.Since(start).Seconds()

	samples := n
	if samples > 200_000 {
		samples = 200_000
	}
	lat := make([]time.Duration, samples)
	// Deterministic non-sequential key order: a fixed odd stride visits
	// every residue, approximating random access without an RNG in the
	// timing loop.
	const stride = 1_000_003
	start = time.Now()
	for i := 0; i < samples; i++ {
		t0 := time.Now()
		if _, err := s.Get(storeKey(i * stride % n)); err != nil {
			return st, err
		}
		lat[i] = time.Since(t0)
	}
	st.GetOpsPerSec = float64(samples) / time.Since(start).Seconds()
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	st.GetP99Micros = float64(lat[samples*99/100].Microseconds())
	return st, nil
}

// measureStore times n puts and sampled gets on a fresh pack store,
// then its cold-start rebuild scan over the full population.
func measureStore(n int) (StoreStats, error) {
	st := StoreStats{PayloadBytes: len(storePayload)}

	packDir, err := os.MkdirTemp("", "benchrec-pack-*")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(packDir)
	pack, err := packstore.Open(packDir, packstore.Options{NoAutoCompact: true})
	if err != nil {
		return st, err
	}
	if st.Pack, err = measureStoreOps(pack, n); err != nil {
		return st, err
	}
	if err := pack.Close(); err != nil {
		return st, err
	}

	start := time.Now()
	pack2, err := packstore.Open(packDir, packstore.Options{NoAutoCompact: true})
	if err != nil {
		return st, err
	}
	st.PackRebuildSeconds = time.Since(start).Seconds()
	if pack2.Len() != n {
		return st, fmt.Errorf("benchrec: rebuild lost entries: %d of %d", pack2.Len(), n)
	}
	st.PackVolumes = int64(pack2.Stats().Volumes)
	pack2.Close()
	return st, nil
}

var (
	idxBenches  = []string{"gzip", "gcc", "art", "mesa", "vpr", "equake", "crafty", "wupwise"}
	idxPolicies = []string{"", "PI", "PID", "toggle1", "toggle2", "M"}
)

// idxRecord fabricates one catalog row with realistic dimension spreads:
// 400 distinct trigger values over [108,112) so a 0.04-wide range filter
// selects ~1% of the population.
func idxRecord(i int) runindex.Record {
	return runindex.Record{
		Key:    fmt.Sprintf("idx%061d", i),
		Bench:  idxBenches[i%len(idxBenches)],
		Policy: idxPolicies[i%len(idxPolicies)],

		Trigger:  108 + float64(i%400)*0.01,
		Kp:       float64(i%16) * 0.25,
		Ki:       float64(i%8) * 0.5,
		Interval: float64(int(250) << (i % 7)),
		Stride:   float64((i % 4) * 64),
		Cores:    1,
		Insts:    1_000_000,

		IPC:       0.5 + float64(i%1000)/2000,
		AvgPower:  30 + float64(i%100)/10,
		AvgDuty:   1 - float64(i%10)/20,
		EmergFrac: float64(i%50) / 500,
		Cycles:    2_000_000,
	}
}

// measureIndex runs the run-catalog lane over n records on disk.
func measureIndex(n int) (IndexStats, error) {
	st := IndexStats{Records: n}
	dir, err := os.MkdirTemp("", "benchrec-index-*")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(dir)
	cat, err := runindex.Open(dir, runindex.Options{Capacity: n})
	if err != nil {
		return st, err
	}

	// T3: ingest throughput (log append + every secondary index).
	start := time.Now()
	for i := 0; i < n; i++ {
		if !cat.Ingest(idxRecord(i)) {
			return st, fmt.Errorf("benchrec: duplicate ingest at %d", i)
		}
	}
	st.T3IngestPerSec = float64(n) / time.Since(start).Seconds()
	if fi, err := os.Stat(dir + "/catalog.log"); err == nil {
		st.LogBytes = fi.Size()
	}

	// T1: point lookups in deterministic non-sequential order.
	samples := n
	if samples > 200_000 {
		samples = 200_000
	}
	const stride = 1_000_003
	start = time.Now()
	for i := 0; i < samples; i++ {
		if _, ok := cat.Get(idxRecord(i * stride % n).Key); !ok {
			return st, fmt.Errorf("benchrec: lookup miss at %d", i)
		}
	}
	st.T1LookupPerSec = float64(samples) / time.Since(start).Seconds()

	// T2 vs T5: the same ~1%-selectivity trigger filter answered by the
	// index's range scan and by brute force over every record.
	q := runindex.Query{Limit: n}
	q.Dims[runindex.DimTrigger] = runindex.RangeFilter{Lo: 110, Hi: 110.04, Set: true}
	visit := func(*runindex.Record) bool { return true }
	const rangeIters = 400
	start = time.Now()
	for i := 0; i < rangeIters; i++ {
		st.T2RangeRows = cat.Execute(&q, visit)
	}
	rangeSec := time.Since(start).Seconds() / rangeIters
	st.T2RangePerSec = 1 / rangeSec

	const scanIters = 20
	start = time.Now()
	for i := 0; i < scanIters; i++ {
		if rows := cat.FullScan(&q, visit); rows != st.T2RangeRows {
			return st, fmt.Errorf("benchrec: full scan found %d rows, range scan %d", rows, st.T2RangeRows)
		}
	}
	scanSec := time.Since(start).Seconds() / scanIters
	st.T5FullScanSec = 1 / scanSec
	st.SpeedupRangeVsScan = scanSec / rangeSec

	// T4: composite query — string equality narrows a wide numeric range.
	qc := runindex.Query{Bench: "gcc", Policy: "PI", Limit: n}
	qc.Dims[runindex.DimTrigger] = runindex.RangeFilter{Lo: 109, Hi: 111, Set: true}
	const compIters = 40
	start = time.Now()
	for i := 0; i < compIters; i++ {
		st.T4CompositeRows = cat.Execute(&qc, visit)
	}
	st.T4CompositeSec = float64(compIters) / time.Since(start).Seconds()

	if err := cat.Close(); err != nil {
		return st, err
	}
	start = time.Now()
	cat2, err := runindex.Open(dir, runindex.Options{Capacity: n})
	if err != nil {
		return st, err
	}
	st.ColdReopenSeconds = time.Since(start).Seconds()
	if cat2.Len() != n {
		return st, fmt.Errorf("benchrec: cold reopen lost records: %d of %d", cat2.Len(), n)
	}
	return st, cat2.Close()
}

// measureParallel pins GOMAXPROCS to 4 and times the baseline suite
// serial vs parallel, restoring the scheduler before returning.
func measureParallel(insts uint64) (ParallelStats, error) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	st := ParallelStats{GoMaxProcs: 4, NumCPU: runtime.NumCPU(), InstsPerRun: insts}
	serial, err := measureBatch(insts, 1)
	if err != nil {
		return st, err
	}
	par, err := measureBatch(insts, 4)
	if err != nil {
		return st, err
	}
	st.Runs = serial.Runs
	st.SerialSeconds = serial.Seconds
	st.ParallelSeconds = par.Seconds
	if par.Seconds > 0 {
		st.Speedup = serial.Seconds / par.Seconds
	}
	return st, nil
}

// loadReport reads an existing BENCH_runner.json so a single section can
// be refreshed in place.
func loadReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(buf, &rep)
	return rep, err
}

func writeReport(path string, rep Report) {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal(err)
	}
}

func main() {
	var (
		out          = flag.String("out", "BENCH_runner.json", "output JSON path")
		insts        = flag.Uint64("insts", 200_000, "instructions per baseline run")
		cycles       = flag.Uint64("cycles", 2_000_000, "cycles per hot-loop measurement")
		only         = flag.String("only", "", "refresh a single section in the existing -out file: store | gang | index | parallel")
		gangBench    = flag.String("gang-bench", "suite", "workloads for the gang-execution lane: \"suite\" or a comma-separated list")
		gangInsts    = flag.Uint64("gang-insts", 2_000_000, "instructions per run in the gang-execution lane")
		storeEntries = flag.Int("store-entries", 100_000, "entries for the result-store lane")
		indexEntries = flag.Int("index-entries", 120_000, "records for the run-catalog query lane")
	)
	flag.Parse()

	if *only == "store" {
		rep, err := loadReport(*out)
		if err != nil {
			fatal(fmt.Errorf("benchrec: -only store refreshes an existing report: %w", err))
		}
		store, err := measureStore(*storeEntries)
		if err != nil {
			fatal(err)
		}
		rep.Schema = "repro/bench_runner/v4"
		rep.ResultStore = &store
		writeReport(*out, rep)
		printStore(*storeEntries, store)
		return
	}
	if *only == "gang" {
		rep, err := loadReport(*out)
		if err != nil {
			fatal(fmt.Errorf("benchrec: -only gang refreshes an existing report: %w", err))
		}
		gang, err := measureGang(gangBenchList(*gangBench), *gangInsts)
		if err != nil {
			fatal(err)
		}
		rep.Schema = "repro/bench_runner/v5"
		rep.Gang = &gang
		writeReport(*out, rep)
		printGang(gang)
		return
	}
	if *only == "index" {
		rep, err := loadReport(*out)
		if err != nil {
			fatal(fmt.Errorf("benchrec: -only index refreshes an existing report: %w", err))
		}
		idx, err := measureIndex(*indexEntries)
		if err != nil {
			fatal(err)
		}
		rep.Schema = "repro/bench_runner/v6"
		rep.Index = &idx
		writeReport(*out, rep)
		printIndex(idx)
		return
	}
	if *only == "parallel" {
		rep, err := loadReport(*out)
		if err != nil {
			fatal(fmt.Errorf("benchrec: -only parallel refreshes an existing report: %w", err))
		}
		par, err := measureParallel(*insts)
		if err != nil {
			fatal(err)
		}
		rep.Schema = "repro/bench_runner/v6"
		rep.Parallel = &par
		writeReport(*out, rep)
		printParallel(par)
		return
	}
	if *only != "" {
		fatal(fmt.Errorf("benchrec: unknown -only section %q", *only))
	}

	rep := Report{
		Schema:     "repro/bench_runner/v6",
		Date:       time.Now().UTC().Format("2006-01-02"),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		HotLoop:    map[string]CycleStats{},
		// Pre-engine numbers from `go test -bench . -benchmem` on the
		// seed tree (same single-core host): the monolithic sim.Run
		// allocated on every sampling interval and offered no
		// parallelism or per-cycle stepping.
		SeedReference: map[string]any{
			"full_system_200k_insts_ns_per_op": 159_095_485,
			"full_system_200k_insts_b_per_op":  1_963_304,
			"full_system_200k_insts_allocs":    677,
			"batch_mode":                       "serial only (ad-hoc goroutines, no cancellation)",
		},
	}

	for name, cfg := range hotVariants() {
		st, err := measureCycles(cfg, *cycles)
		if err != nil {
			fatal(err)
		}
		rep.HotLoop[name] = st
		fmt.Fprintf(os.Stderr, "hot loop %-8s %7.1f ns/cycle  %.4f allocs/cycle\n",
			name, st.NsPerCycle, st.AllocsPerCycle)
	}

	gang, err := measureGang(gangBenchList(*gangBench), *gangInsts)
	if err != nil {
		fatal(err)
	}
	rep.Gang = &gang
	printGang(gang)

	serial, err := measureBatch(*insts, 1)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "baseline batch serial:   %.2fs\n", serial.Seconds)
	parallel, err := measureBatch(*insts, 0)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "baseline batch parallel: %.2fs (%d workers)\n",
		parallel.Seconds, rep.GoMaxProcs)
	rep.Batches = []BatchStats{serial, parallel}
	if parallel.Seconds > 0 {
		rep.SpeedupParallelVsSerial = serial.Seconds / parallel.Seconds
	}
	cacheStats, err := measureCache(*insts)
	if err != nil {
		fatal(err)
	}
	rep.RunCache = &cacheStats
	fmt.Fprintf(os.Stderr, "run cache: cold %.2fs warm %.2fs (%.0fx, %d hits)\n",
		cacheStats.ColdSeconds, cacheStats.WarmSeconds,
		cacheStats.SpeedupWarmVsCold, cacheStats.Hits)
	store, err := measureStore(*storeEntries)
	if err != nil {
		fatal(err)
	}
	rep.ResultStore = &store
	printStore(*storeEntries, store)
	idx, err := measureIndex(*indexEntries)
	if err != nil {
		fatal(err)
	}
	rep.Index = &idx
	printIndex(idx)
	par, err := measureParallel(*insts)
	if err != nil {
		fatal(err)
	}
	rep.Parallel = &par
	printParallel(par)
	rep.Notes = "dtm_pi measures the macro-stepped thermal fast path " +
		"(256-cycle windows); dtm_pi_euler pins the per-cycle Euler solve " +
		"on the same host for a clean before/after. The thermal solve is a " +
		"minority of per-cycle cost (the pipeline/workload model dominates), " +
		"so eliminating nearly all of it yields a modest end-to-end gain " +
		"rather than the thermal-only speedup."
	if rep.NumCPU == 1 {
		rep.Notes += " Host limited to a single CPU (affinity-pinned " +
			"container): parallel equals serial here; the engine's bounded " +
			"pool scales with GOMAXPROCS on multi-core runners (independent " +
			"jobs, no shared mutable state — see BenchmarkBaselineBatch)."
	}

	writeReport(*out, rep)
	fmt.Fprintf(os.Stderr, "wrote %s (speedup %.2fx)\n", *out, rep.SpeedupParallelVsSerial)
}

// gangBenchList resolves the -gang-bench flag.
func gangBenchList(arg string) []string {
	if arg == "suite" {
		return bench.Names()
	}
	return strings.Split(arg, ",")
}

func printStore(entries int, st StoreStats) {
	fmt.Fprintf(os.Stderr,
		"result store (%d entries): put %.0f/s get %.0f/s (p99 %.0fus), rebuild %.3fs over %d volumes\n",
		entries, st.Pack.PutOpsPerSec, st.Pack.GetOpsPerSec, st.Pack.GetP99Micros,
		st.PackRebuildSeconds, st.PackVolumes)
}

func printIndex(idx IndexStats) {
	fmt.Fprintf(os.Stderr,
		"run index (%d records): T1 lookup %.0f/s, T2 range %.0f/s (%d rows), T3 ingest %.0f/s, T4 composite %.0f/s (%d rows), T5 scan %.1f/s — range %.0fx over scan, reopen %.3fs\n",
		idx.Records, idx.T1LookupPerSec, idx.T2RangePerSec, idx.T2RangeRows,
		idx.T3IngestPerSec, idx.T4CompositeSec, idx.T4CompositeRows,
		idx.T5FullScanSec, idx.SpeedupRangeVsScan, idx.ColdReopenSeconds)
}

func printParallel(p ParallelStats) {
	fmt.Fprintf(os.Stderr,
		"parallel reference (GOMAXPROCS=%d, %d cpus): serial %.2fs parallel %.2fs (%.2fx)\n",
		p.GoMaxProcs, p.NumCPU, p.SerialSeconds, p.ParallelSeconds, p.Speedup)
}

func printGang(g GangLaneStats) {
	fmt.Fprintf(os.Stderr,
		"gang (%d workloads, %d policies, %d insts): solo %.1f ns/cyc/cfg, gang %.1f (%.2fx, occ %.2f, %d forks)\n",
		len(g.Benchmarks), g.Policies, g.InstsPerRun,
		g.Solo.NsPerCycleCfg,
		g.Gang.NsPerCycleCfg, g.SpeedupGangVsSolo, g.Gang.Occupancy, g.Gang.Forks)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
