package cluster

// The coordinator HTTP facade: the same /run, /batch, /metrics and
// /healthz surface as one cmd/serve worker, backed by the fleet instead
// of a local simulator. cmd/serve -coordinator mounts this mux, so
// cmd/loadgen and every other caller is unchanged when a deployment grows
// from one host to a fleet.
//
//   - /run proxies one simulation to the fleet, routed by the run's
//     content-addressed cache key; the worker's JSON body and status pass
//     through, with X-Cluster-Worker naming the member that answered.
//   - /batch fans a bench × policy grid out across the fleet and merges
//     the per-run summaries deterministically, ordered by run index (not
//     arrival order): the merged document is byte-identical whether it
//     was computed by one worker's own /batch, a one-worker fleet or a
//     fleet absorbing mid-batch failures.
//   - /healthz reports per-worker state (up/down, inflight, consecutive
//     failures) as JSON; 200 while at least one worker is healthy.
//   - /metrics exposes the ClusterMetrics bundle (plus the standard
//     serving request accounting) as Prometheus text.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/experiments"
	"repro/internal/runindex"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Config assembles the coordinator.
type Config struct {
	// Workers lists the fleet members' base URLs.
	Workers []string
	// Insts is the default committed-instruction budget for /run and
	// /batch when the request does not carry insts=; 0 means 1e6.
	Insts    uint64
	Pool     PoolConfig
	Dispatch DispatchConfig
}

// Server is the coordinator. Build it with NewServer.
type Server struct {
	cfg   Config
	pool  *Pool
	disp  *Dispatcher
	reg   *telemetry.Registry
	cm    *telemetry.ClusterMetrics
	sm    *telemetry.ServingMetrics
	ids   *serving.RequestIDs
	logf  func(format string, args ...any)
	start time.Time
}

// NewServer builds the coordinator and its routed mux. ctx bounds the
// background health prober's lifetime. logf may be nil (silent).
func NewServer(ctx context.Context, cfg Config, logf func(format string, args ...any)) (*Server, *http.ServeMux, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Insts == 0 {
		cfg.Insts = 1_000_000
	}
	reg := telemetry.NewRegistry()
	cm := telemetry.NewClusterMetrics(reg, len(cfg.Workers))
	pool, err := NewPool(cfg.Workers, cfg.Pool, cm, logf)
	if err != nil {
		return nil, nil, err
	}
	s := &Server{
		cfg:   cfg,
		pool:  pool,
		disp:  NewDispatcher(pool, cfg.Dispatch, cm),
		reg:   reg,
		cm:    cm,
		sm:    telemetry.NewServingMetrics(reg),
		ids:   serving.NewRequestIDs(),
		logf:  logf,
		start: time.Now(),
	}
	pool.Start(ctx)

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/run", serving.Instrument(s.sm, s.handleRun))
	mux.HandleFunc("/batch", serving.Instrument(s.sm, s.handleBatch))
	mux.HandleFunc("/query", serving.Instrument(s.sm, s.handleQuery))
	return s, mux, nil
}

// Pool exposes the fleet (tests and cmd/serve logging).
func (s *Server) Pool() *Pool { return s.pool }

// Dispatcher exposes the reliability layer.
func (s *Server) Dispatcher() *Dispatcher { return s.disp }

// WorkerHealth is one fleet member's row in the /healthz body.
type WorkerHealth struct {
	URL              string `json:"url"`
	Up               bool   `json:"up"`
	InFlight         int64  `json:"inflight"`
	ConsecutiveFails int    `json:"consecutive_fails"`
}

// ClusterHealth is the coordinator's /healthz body.
type ClusterHealth struct {
	Status         string         `json:"status"`
	HealthyWorkers int            `json:"healthy_workers"`
	TotalWorkers   int            `json:"total_workers"`
	UptimeSeconds  float64        `json:"uptime_seconds"`
	Workers        []WorkerHealth `json:"workers"`
}

// handleHealthz reports per-worker state; 200 while the fleet can serve
// (at least one healthy worker), 503 otherwise.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := ClusterHealth{
		HealthyWorkers: s.pool.Healthy(),
		TotalWorkers:   len(s.pool.Workers()),
		UptimeSeconds:  time.Since(s.start).Seconds(),
	}
	for _, wk := range s.pool.Workers() {
		h.Workers = append(h.Workers, WorkerHealth{
			URL: wk.URL, Up: wk.Up(), InFlight: wk.InFlight(), ConsecutiveFails: wk.Fails(),
		})
	}
	status := http.StatusOK
	h.Status = "ok"
	if h.HealthyWorkers == 0 {
		status = http.StatusServiceUnavailable
		h.Status = "no healthy workers"
	}
	if err := serving.WriteJSON(w, status, h); err != nil {
		s.logf("healthz write: %v", err)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.logf("metrics write: %v", err)
	}
}

// runSpec is one fully validated run: its fleet-facing query and the
// cache key that routes it.
type runSpec struct {
	bench.RunQuery
	key   string
	query string
}

// makeSpec derives one run's routing key from cfg, the exact simulation
// config a worker builds for rq — the same sim.CacheKey the worker's disk
// cache uses, so affinity routing and the cache agree by construction.
func makeSpec(rq bench.RunQuery, cfg sim.Config) (runSpec, error) {
	key, ok := sim.CacheKey(cfg)
	if !ok {
		return runSpec{}, fmt.Errorf("config for %s/%s is not routable", rq.Bench, rq.Policy)
	}
	return runSpec{
		RunQuery: rq,
		key:      key,
		query:    fmt.Sprintf("/run?bench=%s&policy=%s&insts=%d", rq.Bench, rq.Policy, rq.Insts),
	}, nil
}

// handleRun proxies one simulation to the fleet.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.For(r)
	w.Header().Set("X-Request-Id", reqID)

	rq, cfg, err := bench.ParseRun(r.URL.Query(), s.cfg.Insts)
	var spec runSpec
	if err == nil {
		spec, err = makeSpec(rq, cfg)
	}
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}

	resp, err := s.disp.Do(r.Context(), spec.key, spec.query, reqID)
	if err != nil {
		serving.WriteError(w, s.logf, reqID, statusForDispatchError(err), err)
		return
	}
	w.Header().Set("X-Cluster-Worker", resp.Worker.URL)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.Status)
	if _, err := w.Write(resp.Body); err != nil {
		s.logf("req %s: writing proxied response: %v", reqID, err)
	}
}

// statusForDispatchError maps dispatcher failures onto the gateway
// statuses a proxy owes its callers: 503 when the whole fleet is down,
// 499/504 for the caller's own cancellation or deadline, 502 when
// transport to the fleet failed.
func statusForDispatchError(err error) int {
	switch {
	case errors.Is(err, ErrNoHealthyWorkers):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		return serving.StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

// handleQuery answers a run-catalog question across the whole fleet:
// the raw query string is forwarded verbatim to every healthy worker's
// /query (each worker indexes its own cache), and the per-worker answers
// are merged — deduplicated by cache key (affinity routing means a run
// usually lives on one worker, but requeues and hedges copy entries) and
// sorted deterministically — so the caller sees one catalog regardless
// of how results are spread over the fleet. The filters are validated
// here first so a malformed query is a 400, not a fleet of them.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.For(r)
	w.Header().Set("X-Request-Id", reqID)

	q, err := runindex.ParseQuery(r.URL.Query())
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}
	workers := s.pool.Workers()
	bodies := make([][]byte, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, wk := range workers {
		if !wk.Up() {
			continue
		}
		wg.Add(1)
		go func(i int, wk *Worker) {
			defer wg.Done()
			bodies[i], errs[i] = s.queryWorker(r.Context(), wk, r.URL.RawQuery, reqID)
		}(i, wk)
	}
	wg.Wait()

	limit := q.Limit
	if limit <= 0 {
		limit = runindex.DefaultLimit
	}
	merged := runindex.QueryResponse{Rows: []runindex.Record{}}
	seen := map[string]bool{}
	for i := range workers {
		if bodies[i] == nil {
			if errs[i] != nil {
				s.logf("req %s: query on %s: %v", reqID, workers[i].URL, errs[i])
			}
			continue
		}
		var part runindex.QueryResponse
		if err := json.Unmarshal(bodies[i], &part); err != nil {
			s.logf("req %s: bad query body from %s: %v", reqID, workers[i].URL, err)
			continue
		}
		merged.Workers++
		merged.Records += part.Records
		for _, row := range part.Rows {
			if !seen[row.Key] {
				seen[row.Key] = true
				merged.Rows = append(merged.Rows, row)
			}
		}
	}
	if merged.Workers == 0 {
		serving.WriteError(w, s.logf, reqID, http.StatusServiceUnavailable,
			errors.New("no worker answered the catalog query"))
		return
	}
	sort.Slice(merged.Rows, func(i, j int) bool {
		a, b := &merged.Rows[i], &merged.Rows[j]
		if a.Bench != b.Bench {
			return a.Bench < b.Bench
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Key < b.Key
	})
	if len(merged.Rows) > limit {
		merged.Rows = merged.Rows[:limit]
	}
	merged.Count = len(merged.Rows)
	if err := serving.WriteJSON(w, http.StatusOK, merged); err != nil {
		s.logf("req %s: writing query response: %v", reqID, err)
	}
}

// queryWorker fetches one worker's catalog answer under the caller's
// request ID. A worker without a catalog (no cache dir) answers 404; that
// is an empty contribution, not an error.
func (s *Server) queryWorker(ctx context.Context, wk *Worker, rawQuery, reqID string) ([]byte, error) {
	url := wk.URL + "/query"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := s.disp.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNotFound {
		// The worker runs without a catalog (no cache dir): it answered,
		// with nothing to contribute.
		return []byte(`{"count":0,"records":0,"rows":[]}`), nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker status %d", resp.StatusCode)
	}
	return body, nil
}

// handleBatch fans a bench × policy grid out across the fleet and
// answers with the deterministic merge. Parameters: benches= and
// policies= (comma-separated; defaults are the full 18-benchmark table
// and the standard policy evaluation set) and insts=, checked by the
// worker's own rules (bench.ParseBatch), so one worker's /batch and the
// coordinator's answer one query with one document.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.For(r)
	w.Header().Set("X-Request-Id", reqID)

	bq, err := bench.ParseBatch(r.URL.Query(), experiments.DefaultParams().Policies, s.cfg.Insts)
	var cells []bench.RunQuery
	var cfgs []sim.Config
	if err == nil {
		cells, cfgs, err = bq.Cells()
	}
	specs := make([]runSpec, len(cells))
	for i := 0; err == nil && i < len(cells); i++ {
		specs[i], err = makeSpec(cells[i], cfgs[i])
	}
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}

	resp := s.runBatch(r.Context(), specs, reqID)
	resp.BatchQuery = bq
	status := http.StatusOK
	if resp.Failed == len(specs) && len(specs) > 0 {
		status = http.StatusBadGateway // nothing completed: surface the outage
	}
	if err := serving.WriteJSON(w, status, resp); err != nil {
		s.logf("req %s: writing batch response: %v", reqID, err)
	}
}

// runBatch dispatches every spec concurrently (bounded by the per-worker
// slot semaphores) and merges the results in run-index order. A worker
// dying mid-batch is absorbed here: its failed dispatches are requeued
// onto survivors by the dispatcher, and the merge is indifferent to which
// member finally answered. Every dispatch carries the batch's reqID.
func (s *Server) runBatch(ctx context.Context, specs []runSpec, reqID string) bench.BatchResponse {
	runs := make([]bench.RunResult, len(specs))
	errs := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec runSpec) {
			defer wg.Done()
			resp, err := s.disp.Do(ctx, spec.key, spec.query, reqID)
			if err != nil {
				errs[i] = fmt.Sprintf("%s/%s: %v", spec.Bench, spec.Policy, err)
				return
			}
			if resp.Status != http.StatusOK {
				errs[i] = fmt.Sprintf("%s/%s: worker status %d", spec.Bench, spec.Policy, resp.Status)
				return
			}
			var sum bench.RunSummary
			if err := json.Unmarshal(resp.Body, &sum); err != nil {
				errs[i] = fmt.Sprintf("%s/%s: bad worker body: %v", spec.Bench, spec.Policy, err)
				return
			}
			runs[i] = bench.RunResult{Index: i, Benchmark: spec.Bench, Policy: spec.Policy, RunStats: sum.RunStats}
		}(i, spec)
	}
	wg.Wait()

	out := bench.BatchResponse{Runs: make([]bench.RunResult, 0, len(specs))}
	for i := range specs {
		if errs[i] != "" {
			out.Failed++
			out.Errors = append(out.Errors, errs[i])
			continue
		}
		out.Runs = append(out.Runs, runs[i])
	}
	return out
}
