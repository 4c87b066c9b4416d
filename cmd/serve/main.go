// Command serve runs simulations behind a production-hardened HTTP
// interface with live telemetry. The serving layer (internal/serving)
// applies the paper's own actuator lesson to the admission path: a bounded
// semaphore limits concurrent simulations, a short bounded queue absorbs
// bursts, and overflow is shed immediately with 429 + Retry-After instead
// of winding up into unbounded backlog. Every /run carries a per-request
// deadline, every error is a structured JSON body with a request ID, and
// SIGINT cancels running runs and batches and waits for every handler to
// return before the cache and catalog close.
//
//	serve -addr :8721 -max-inflight 8 -queue 16 -run-timeout 30s
//	serve -cache-dir .runcache                       # replay identical /run requests
//	serve -chaos 0.2 -chaos-delay 100ms              # inject disk faults + slow sims
//	curl localhost:8721/run?bench=gcc&policy=PI      # one sim, JSON result
//	curl 'localhost:8721/batch?benches=gcc,art&policies=none,PI'  # a grid, one merged document
//	curl localhost:8721/metrics                      # Prometheus text
//
// /batch runs a benchmarks × policies grid synchronously and answers with
// the document the coordinator's /batch returns for the same query: one
// worker is a fleet of one. Its cells gang, and they are served from and
// stored in the run cache and catalog as a /run of each cell would be. A
// batch holds one admission slot for its whole run, so a full worker sheds
// it with 429 like /run.
//
// With -coordinator the process serves the same API backed by a fleet of
// workers instead of a local simulator (internal/cluster): runs are
// routed by cache affinity (rendezvous hashing on the run's content
// hash), failed workers are probed, marked down and their outstanding
// runs requeued onto survivors, and /batch merges fleet results
// deterministically in run-index order.
//
//	serve -coordinator -workers http://h1:8721,http://h2:8721 -addr :8720
//	serve -coordinator -workers ... -hedge-after 2s  # hedge stragglers
//
// Overload semantics: when all -max-inflight slots are busy and the queue
// is full (or a queued request waits longer than -queue-wait), /run and
// /batch return 429 with a Retry-After hint in well under 10ms. Accepted
// requests are bounded by -run-timeout (504 on expiry); clients that hang
// up mid-run are recorded as 499, not server errors. Admission, shed,
// queue-depth and latency-histogram metrics are on /metrics.
package main

import (
	"context"
	"errors"
	_ "expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/serving"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// serverConfig is everything main's flags decide; tests build it directly.
type serverConfig struct {
	insts      uint64
	workers    int
	runTimeout time.Duration
	admission  serving.AdmissionConfig
	cacheDir   string
	chaos      *serving.Chaos // nil = no fault injection
}

// errShuttingDown answers a /run or /batch that arrives, or is cut short,
// once the server has begun to drain.
var errShuttingDown = errors.New("serve: shutting down, not accepting new work")

// server owns the shared registry, the admission controller, the run
// cache and its catalog.
type server struct {
	cfg     serverConfig
	life    context.Context // done once the server drains
	reg     *telemetry.Registry
	sm      *telemetry.ServingMetrics
	cache   *runner.Cache[*sim.Result] // nil = no run cache
	catalog *runindex.Catalog          // nil = no catalog (no cache dir)
	adm     *serving.Admission
	ids     *serving.RequestIDs
	logf    func(format string, args ...any)
	start   time.Time
}

// newServer builds the server and its routed mux. parent is the server's
// lifetime: once it is done, /healthz reports draining, new runs and
// batches are refused and running ones are cancelled.
func newServer(parent context.Context, cfg serverConfig, logf func(format string, args ...any)) (*server, *http.ServeMux, error) {
	if logf == nil {
		logf = log.New(os.Stderr, "serve: ", log.LstdFlags).Printf
	}
	reg := telemetry.NewRegistry()
	sm := telemetry.NewServingMetrics(reg)
	s := &server{
		cfg:   cfg,
		life:  parent,
		reg:   reg,
		sm:    sm,
		adm:   serving.NewAdmission(cfg.admission, sm),
		ids:   serving.NewRequestIDs(),
		logf:  logf,
		start: time.Now(),
	}
	if cfg.cacheDir != "" {
		// The run catalog rides next to the cache: every stored result is
		// indexed for /query.
		st, err := experiments.OpenStore(cfg.cacheDir, reg)
		if err != nil {
			return nil, nil, err
		}
		if cfg.chaos != nil {
			st.Cache.SetFaultHook(cfg.chaos.DiskFault)
		}
		s.cache, s.catalog = st.Cache, st.Catalog
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/run", serving.Instrument(s.sm, s.handleRun))
	mux.HandleFunc("/batch", serving.Instrument(s.sm, s.handleBatch))
	mux.HandleFunc("/query", serving.Instrument(s.sm, s.handleQuery))
	// expvar and pprof register themselves on the default mux; forward the
	// whole /debug/ subtree there.
	mux.Handle("/debug/", http.DefaultServeMux)
	return s, mux, nil
}

func main() {
	var (
		addr         = flag.String("addr", ":8721", "HTTP listen address")
		insts        = flag.Uint64("insts", 1_000_000, "committed instructions per run")
		workers      = flag.String("workers", "", "worker mode: parallel simulations per batch (a number; empty or 0 = GOMAXPROCS). coordinator mode: comma-separated worker base URLs")
		cacheDir     = flag.String("cache-dir", "", "persist /run results under this directory and replay identical requests (hit/miss counters on /metrics)")
		maxInFlight  = flag.Int("max-inflight", 0, "concurrent /run simulations and /batch grids admitted (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("queue", 8, "requests allowed to wait for a slot; overflow sheds with 429")
		queueWait    = flag.Duration("queue-wait", 250*time.Millisecond, "longest a queued request may wait before being shed")
		runTimeout   = flag.Duration("run-timeout", 60*time.Second, "per-request /run simulation deadline (0 = none; expiry returns 504)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		chaosProb    = flag.Float64("chaos", 0, "fault-injection probability: disk-cache failures and slow-sim delays (0 = off)")
		chaosDelay   = flag.Duration("chaos-delay", 250*time.Millisecond, "injected slow-sim stall when -chaos fires")
		chaosSeed    = flag.Int64("chaos-seed", 1, "chaos RNG seed (runs are reproducible per seed)")

		coordinator    = flag.Bool("coordinator", false, "serve the same API backed by a worker fleet instead of a local simulator")
		probeEvery     = flag.Duration("probe-every", time.Second, "coordinator: worker health-probe period")
		probeFails     = flag.Int("probe-fails", 2, "coordinator: consecutive failures before a worker is marked down")
		clusterRetries = flag.Int("cluster-retries", 3, "coordinator: re-dispatches after a failed attempt")
		retryBackoff   = flag.Duration("retry-backoff", 25*time.Millisecond, "coordinator: base retry backoff (exponential, jittered)")
		hedgeAfter     = flag.Duration("hedge-after", 0, "coordinator: hedge a straggling run on a second worker after this delay (0 = off)")
		workerInflight = flag.Int("worker-inflight", 4, "coordinator: concurrent dispatches per worker")
		dispatchTO     = flag.Duration("dispatch-timeout", 120*time.Second, "coordinator: per-attempt worker round-trip bound (keep above the workers' -run-timeout)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *coordinator {
		runCoordinator(ctx, *addr, cluster.Config{
			Workers: strings.Split(*workers, ","),
			Insts:   *insts,
			Pool: cluster.PoolConfig{
				ProbeEvery:    *probeEvery,
				MarkDownAfter: *probeFails,
			},
			Dispatch: cluster.DispatchConfig{
				Retries:        *clusterRetries,
				RetryBase:      *retryBackoff,
				HedgeAfter:     *hedgeAfter,
				WorkerInFlight: *workerInflight,
				Timeout:        *dispatchTO,
			},
		}, *drainTimeout)
		return
	}

	nWorkers := 0
	if *workers != "" {
		n, err := strconv.Atoi(*workers)
		if err != nil || n < 0 {
			fmt.Fprintf(os.Stderr, "serve: -workers must be a non-negative integer in worker mode (got %q)\n", *workers)
			os.Exit(2)
		}
		nWorkers = n
	}
	cfg := serverConfig{
		insts:      *insts,
		workers:    nWorkers,
		runTimeout: *runTimeout,
		cacheDir:   *cacheDir,
		admission: serving.AdmissionConfig{
			MaxInFlight: *maxInFlight,
			MaxQueue:    *maxQueue,
			MaxWait:     *queueWait,
		},
	}
	if *chaosProb > 0 {
		cfg.chaos = serving.NewChaos(*chaosSeed, *chaosProb, *chaosProb, *chaosDelay)
	}
	s, mux, err := newServer(ctx, cfg, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	srv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	adm := s.adm.Config()
	s.logf("serving on %s (max-inflight %d, queue %d/%s, run-timeout %s, chaos %v)",
		*addr, adm.MaxInFlight, adm.MaxQueue, adm.MaxWait, *runTimeout, cfg.chaos != nil)

	select {
	case <-ctx.Done():
		if err := s.drain(srv, *drainTimeout); err != nil {
			s.logf("%v", err)
			os.Exit(1)
		}
		s.logf("drained, shut down")
	case err := <-errc:
		s.logf("%v", err)
		os.Exit(1)
	}
}

// drain shuts srv down once the server's lifetime has ended, which has
// already cancelled every running /run and /batch: it stops accepting,
// waits up to timeout for every handler to return, and only then closes
// the cache and the catalog.
func (s *server) drain(srv *http.Server, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain timed out after %s: %w", timeout, err)
	}
	return errors.Join(s.cache.Close(), s.catalog.Close())
}

// runCoordinator boots the cluster coordinator: the same HTTP surface,
// served by internal/cluster over the worker fleet. SIGINT stops the
// prober (via ctx) and drains in-flight proxied requests.
func runCoordinator(ctx context.Context, addr string, cfg cluster.Config, drainTimeout time.Duration) {
	logf := log.New(os.Stderr, "serve: ", log.LstdFlags).Printf
	cs, mux, err := cluster.NewServer(ctx, cfg, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	srv := &http.Server{Addr: addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	dc := cs.Dispatcher().Config()
	logf("coordinating %d workers on %s (retries %d, hedge-after %s, worker-inflight %d)",
		len(cs.Pool().Workers()), addr, dc.Retries, dc.HedgeAfter, dc.WorkerInFlight)

	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logf("http shutdown: %v", err)
			os.Exit(1)
		}
		logf("drained, shut down")
	case err := <-errc:
		logf("%v", err)
		os.Exit(1)
	}
}

// handleHealthz answers a JSON readiness body: remaining admission
// capacity, cache presence and uptime, so the cluster prober and
// operators can see how loaded a worker is, not just that it is alive.
// Status-code semantics are unchanged for old plain probes: 200 while
// serving, 503 once draining (load balancers stop routing on shutdown).
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	adm := s.adm.Config()
	h := serving.Health{
		Status:        "ok",
		InFlight:      s.adm.InFlight(),
		QueueDepth:    s.adm.Queued(),
		MaxInFlight:   adm.MaxInFlight,
		MaxQueue:      adm.MaxQueue,
		CacheDir:      s.cache != nil,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}
	status := http.StatusOK
	if s.life.Err() != nil {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, "", status, h)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.logf("metrics write: %v", err)
	}
}

// handleRun executes one instrumented simulation synchronously under
// admission control and the per-request deadline, returning a JSON
// summary. Client disconnects map to 499, deadline expiry to 504, and
// admission overflow to 429 with Retry-After. Like a batch, a run is
// cancelled when the server drains and refused with 503 once it has.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.For(r)
	w.Header().Set("X-Request-Id", reqID)
	if s.draining(w, reqID) {
		return
	}

	_, cfg, err := bench.ParseRun(r.URL.Query(), s.cfg.insts)
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}

	release, ok := s.admit(w, r, reqID)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.requestContext(r)
	defer cancel()
	if s.cfg.runTimeout > 0 {
		var cancelRun context.CancelFunc
		ctx, cancelRun = context.WithTimeout(ctx, s.cfg.runTimeout)
		defer cancelRun()
	}
	if err := s.cfg.chaos.MaybeDelay(ctx); err != nil {
		s.writeRunError(w, reqID, err)
		return
	}

	// The cache key is computed before the metrics bundle is attached:
	// live instrumentation never changes the simulated trajectory, so a
	// cached result answers the request exactly — a hit simply does not
	// re-stream that run's per-cycle metrics into /metrics.
	var key string
	if s.cache != nil {
		if k, ok := sim.CacheKey(cfg); ok {
			key = k
			if res, hit := s.cache.Get(key); hit {
				s.writeJSON(w, reqID, http.StatusOK, runSummary(res, reqID, true))
				return
			}
		}
	}
	cfg.Metrics = telemetry.NewSimMetrics(s.reg)
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		s.writeRunError(w, reqID, err)
		return
	}
	if key != "" {
		s.cache.Put(key, res)
	}
	s.writeJSON(w, reqID, http.StatusOK, runSummary(res, reqID, false))
}

func runSummary(res *sim.Result, reqID string, cached bool) bench.RunSummary {
	return bench.RunSummary{
		RequestID: reqID,
		Cached:    cached,
		Benchmark: res.Benchmark,
		Policy:    res.Policy,
		RunStats:  bench.StatsOf(res),
	}
}

// draining answers the request with 503 and reports true once the
// server's lifetime has ended.
func (s *server) draining(w http.ResponseWriter, reqID string) bool {
	if s.life.Err() == nil {
		return false
	}
	serving.WriteError(w, s.logf, reqID, http.StatusServiceUnavailable, errShuttingDown)
	return true
}

// requestContext returns the context a run or batch runs under: done when
// the client leaves or the server's lifetime ends. cancel releases it.
func (s *server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.life, cancel)
	return ctx, func() { stop(); cancel() }
}

// writeRunError answers a run or batch cut short: 503 naming the shutdown
// once the server's lifetime has ended, else the status the error maps to.
func (s *server) writeRunError(w http.ResponseWriter, reqID string, err error) {
	status := serving.StatusForRunError(err)
	if s.life.Err() != nil {
		status, err = http.StatusServiceUnavailable, fmt.Errorf("%w: %w", errShuttingDown, err)
	}
	serving.WriteError(w, s.logf, reqID, status, err)
}

// admit claims an admission slot for the request, or answers it: 429 with
// Retry-After when shed, 499 when the client left while queued.
func (s *server) admit(w http.ResponseWriter, r *http.Request, reqID string) (release func(), ok bool) {
	release, err := s.adm.Acquire(r.Context())
	if err != nil {
		var shed *serving.ShedError
		if errors.As(err, &shed) {
			// Sheds are normal overload behavior, tracked by the shed
			// counters — logging each one would melt the log under the
			// very load the controller exists to absorb.
			serving.WriteError(w, nil, reqID, http.StatusTooManyRequests, shed)
			return nil, false
		}
		// The client went away while queued.
		serving.WriteError(w, s.logf, reqID, serving.StatusClientClosedRequest, err)
		return nil, false
	}
	return release, true
}

// handleQuery answers run-catalog questions: point lookups, dimension
// range scans and composite grid queries over every result this worker
// has ever cached. 404 when the server runs without a cache dir (no
// catalog exists), 400 on malformed filters.
//
//	curl 'localhost:8721/query?trigger=110:111&policy=PI'
//	curl 'localhost:8721/query?bench=gcc&limit=50'
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.For(r)
	w.Header().Set("X-Request-Id", reqID)
	if s.catalog == nil {
		serving.WriteError(w, nil, reqID, http.StatusNotFound,
			errors.New("no run catalog: server started without -cache-dir"))
		return
	}
	q, err := runindex.ParseQuery(r.URL.Query())
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, reqID, http.StatusOK, s.catalog.Run(&q))
}

// handleBatch runs a benchmarks × policies grid (bench.ParseBatch) and
// answers with the coordinator's merged document: the grid on a fleet of
// one. The cells run uninstrumented through experiments.RunConfigs, so
// they gang, hits come from the run cache and misses land in it and in
// the catalog as a /run of each cell would, and they feed the runner_*
// metrics, not the per-sim sim_* family. A batch holds one admission slot
// for its whole run, is cancelled when the client leaves or the server
// drains, and is refused with 503 once draining has begun.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.For(r)
	w.Header().Set("X-Request-Id", reqID)
	if s.draining(w, reqID) {
		return
	}

	bq, err := bench.ParseBatch(r.URL.Query(), experiments.DefaultParams().Policies, s.cfg.insts)
	var cells []bench.RunQuery
	var cfgs []sim.Config
	if err == nil {
		cells, cfgs, err = bq.Cells()
	}
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}

	release, ok := s.admit(w, r, reqID)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.requestContext(r)
	defer cancel()
	res, _, err := experiments.RunConfigs(experiments.Params{
		Context:  ctx,
		Workers:  s.cfg.workers,
		Registry: s.reg,
		Cache:    s.cache,
	}, cfgs)
	if err != nil {
		s.writeRunError(w, reqID, err)
		return
	}
	resp := bench.BatchResponse{BatchQuery: bq, Runs: make([]bench.RunResult, len(cells))}
	for i, c := range cells {
		resp.Runs[i] = bench.RunResult{Index: i, Benchmark: c.Bench, Policy: c.Policy, RunStats: bench.StatsOf(res[i])}
	}
	s.writeJSON(w, reqID, http.StatusOK, resp)
}

// writeJSON emits a JSON body and logs (rather than ignores) encode or
// write failures — by then the status line is committed, so logging is
// the only remaining channel.
func (s *server) writeJSON(w http.ResponseWriter, reqID string, status int, v any) {
	if err := serving.WriteJSON(w, status, v); err != nil {
		s.logf("req %s: writing response: %v", reqID, err)
	}
}
