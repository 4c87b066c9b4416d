// Command serve runs experiment batches behind a production-hardened HTTP
// interface with live telemetry. The serving layer (internal/serving)
// applies the paper's own actuator lesson to the admission path: a bounded
// semaphore limits concurrent simulations, a short bounded queue absorbs
// bursts, and overflow is shed immediately with 429 + Retry-After instead
// of winding up into unbounded backlog. Every run carries a per-request
// deadline, every error is a structured JSON body with a request ID, and
// SIGINT drains in-flight batch goroutines before exit.
//
//	serve -addr :8721 -max-inflight 8 -queue 16 -run-timeout 30s
//	serve -cache-dir .runcache                       # replay identical /run requests
//	serve -chaos 0.2 -chaos-delay 100ms              # inject disk faults + slow sims
//	curl localhost:8721/run?bench=gcc&policy=PI      # one sim, JSON result
//	curl localhost:8721/batch?kind=baseline          # async suite batch
//	curl localhost:8721/batches                      # batch status
//	curl localhost:8721/metrics                      # Prometheus text
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
// is full (or a queued request waits longer than -queue-wait), /run
// returns 429 with a Retry-After hint in well under 10ms. Accepted
// requests are bounded by -run-timeout (504 on expiry); clients that hang
// up mid-run are recorded as 499, not server errors. Admission, shed,
// queue-depth and latency-histogram metrics are on /metrics.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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
	insts        uint64
	workers      int
	maxBatches   int // concurrent /batch jobs admitted; <= 0 means 2
	runTimeout   time.Duration
	drainTimeout time.Duration
	admission    serving.AdmissionConfig
	cacheDir     string
	cacheMem     int64          // in-memory cache layer cap in bytes (0 = default)
	chaos        *serving.Chaos // nil = no fault injection
}

// batchState tracks one asynchronous batch for /batches.
type batchState struct {
	ID      int       `json:"id"`
	Kind    string    `json:"kind"`
	Started time.Time `json:"started"`
	Done    int       `json:"done"`
	Total   int       `json:"total"`
	Failed  int       `json:"failed"`
	Running bool      `json:"running"`
	Error   string    `json:"error,omitempty"`
}

// server owns the shared registry, the admission controller, the batch
// drainer and the batch table.
type server struct {
	cfg     serverConfig
	reg     *telemetry.Registry
	sm      *telemetry.ServingMetrics
	cache   *runner.Cache[*sim.Result] // nil = no run cache
	catalog *runindex.Catalog          // nil = no catalog (no cache dir)
	adm     *serving.Admission
	drain   *serving.Drainer
	ids     *serving.RequestIDs
	logf    func(format string, args ...any)
	start   time.Time

	mu           sync.Mutex
	batches      map[int]*batchState
	nextID       int
	batchRunning int
}

// newServer builds the server and its routed mux. parent is the lifetime
// context batch goroutines descend from (cancelled at drain).
func newServer(parent context.Context, cfg serverConfig, logf func(format string, args ...any)) (*server, *http.ServeMux, error) {
	if logf == nil {
		logf = log.New(os.Stderr, "serve: ", log.LstdFlags).Printf
	}
	if cfg.maxBatches <= 0 {
		cfg.maxBatches = 2
	}
	reg := telemetry.NewRegistry()
	sm := telemetry.NewServingMetrics(reg)
	s := &server{
		cfg:     cfg,
		reg:     reg,
		sm:      sm,
		adm:     serving.NewAdmission(cfg.admission, sm),
		drain:   serving.NewDrainer(parent),
		ids:     serving.NewRequestIDs(),
		logf:    logf,
		start:   time.Now(),
		batches: map[int]*batchState{},
	}
	if cfg.cacheDir != "" {
		cache, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{
			Dir:      cfg.cacheDir,
			MemBytes: cfg.cacheMem,
		}, telemetry.NewCacheMetrics(reg))
		if err != nil {
			return nil, nil, err
		}
		if cfg.chaos != nil {
			cache.SetFaultHook(cfg.chaos.DiskFault)
		}
		s.cache = cache

		// The run catalog rides next to the cache: every Put is flattened
		// into the dimension index, and an empty catalog over a populated
		// pack store (first boot after enabling the catalog, or a lost
		// catalog log) is rebuilt from a store scan.
		catalog, err := runindex.Open(filepath.Join(cfg.cacheDir, "catalog"),
			runindex.Options{Metrics: telemetry.NewIndexMetrics(reg)})
		if err != nil {
			cache.Close()
			return nil, nil, err
		}
		if catalog.Len() == 0 {
			if n, err := catalog.RebuildFromStore(cache.Store()); err != nil {
				logf("catalog rebuild: %v", err)
			} else if n > 0 {
				logf("catalog rebuilt: %d records recovered from the pack store", n)
			}
		}
		cache.SetIngest(func(key string, res *sim.Result) {
			catalog.Ingest(runindex.FromResult(key, res))
		})
		s.catalog = catalog
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/run", serving.Instrument(s.sm, s.handleRun))
	mux.HandleFunc("/batch", serving.Instrument(s.sm, s.handleBatch))
	mux.HandleFunc("/batches", s.handleBatches)
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
		maxBatches   = flag.Int("max-batches", 2, "concurrent /batch jobs admitted; overflow sheds with 429")
		cacheDir     = flag.String("cache-dir", "", "persist /run results under this directory and replay identical requests (hit/miss counters on /metrics)")
		cacheMemMiB  = flag.Int64("cache-mem", 0, "in-memory cache layer cap in MiB (0 = default 256, negative = unlimited)")
		maxInFlight  = flag.Int("max-inflight", 0, "concurrent /run simulations admitted (0 = GOMAXPROCS)")
		maxQueue     = flag.Int("queue", 8, "requests allowed to wait for a slot; overflow sheds with 429")
		queueWait    = flag.Duration("queue-wait", 250*time.Millisecond, "longest a queued request may wait before being shed")
		runTimeout   = flag.Duration("run-timeout", 60*time.Second, "per-request simulation deadline (0 = none; expiry returns 504)")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests and batches")
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
		insts:        *insts,
		workers:      nWorkers,
		maxBatches:   *maxBatches,
		runTimeout:   *runTimeout,
		drainTimeout: *drainTimeout,
		cacheDir:     *cacheDir,
		cacheMem:     memBytes(*cacheMemMiB),
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
	expvar.Publish("repro.batches", expvar.Func(func() any { return s.snapshot() }))

	srv := &http.Server{Addr: *addr, Handler: mux}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	adm := s.adm.Config()
	s.logf("serving on %s (max-inflight %d, queue %d/%s, run-timeout %s, chaos %v)",
		*addr, adm.MaxInFlight, adm.MaxQueue, adm.MaxWait, *runTimeout, cfg.chaos != nil)

	select {
	case <-ctx.Done():
		// Graceful drain: stop accepting and finish in-flight requests,
		// then cancel background batches and await them.
		shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			s.logf("http shutdown: %v", err)
		}
		if s.drain.Shutdown(*drainTimeout) {
			if err := s.cache.Close(); err != nil {
				s.logf("cache close: %v", err)
			}
			if err := s.catalog.Close(); err != nil {
				s.logf("catalog close: %v", err)
			}
			s.logf("drained, shut down")
		} else {
			s.logf("drain timed out after %s with batches still running", *drainTimeout)
			os.Exit(1)
		}
	case err := <-errc:
		s.logf("%v", err)
		os.Exit(1)
	}
}

// memBytes converts the -cache-mem MiB flag to the CacheConfig.MemBytes
// convention: 0 keeps the default cap, negative means unlimited.
func memBytes(mib int64) int64 {
	if mib <= 0 {
		return mib
	}
	return mib << 20
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
	if s.drain.Draining() {
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
// admission overflow to 429 with Retry-After.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.Next()
	w.Header().Set("X-Request-Id", reqID)

	_, cfg, err := bench.ParseRun(r.URL.Query(), s.cfg.insts)
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}

	release, err := s.adm.Acquire(r.Context())
	if err != nil {
		var shed *serving.ShedError
		if errors.As(err, &shed) {
			// Sheds are normal overload behavior, tracked by the shed
			// counters — logging each one would melt the log under the
			// very load the controller exists to absorb.
			serving.WriteError(w, nil, reqID, http.StatusTooManyRequests, shed)
			return
		}
		// The client went away while queued.
		serving.WriteError(w, s.logf, reqID, serving.StatusClientClosedRequest, err)
		return
	}
	defer release()

	ctx := r.Context()
	if s.cfg.runTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.runTimeout)
		defer cancel()
	}
	if err := s.cfg.chaos.MaybeDelay(ctx); err != nil {
		serving.WriteError(w, s.logf, reqID, serving.StatusForRunError(err), err)
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
		serving.WriteError(w, s.logf, reqID, serving.StatusForRunError(err), err)
		return
	}
	if key != "" {
		s.cache.Put(key, res)
	}
	s.writeJSON(w, reqID, http.StatusOK, runSummary(res, reqID, false))
}

func runSummary(res *sim.Result, reqID string, cached bool) map[string]any {
	return map[string]any{
		"request_id": reqID,
		"cached":     cached,
		"benchmark":  res.Benchmark,
		"policy":     res.Policy,
		"ipc":        res.IPC,
		"cycles":     res.Cycles,
		"insts":      res.Insts,
		"avg_power":  res.AvgChipPower,
		"avg_duty":   res.AvgDuty,
		"emerg_frac": res.EmergencyFrac(),
	}
}

// handleQuery answers run-catalog questions: point lookups, dimension
// range scans and composite grid queries over every result this worker
// has ever cached. 404 when the server runs without a cache dir (no
// catalog exists), 400 on malformed filters.
//
//	curl 'localhost:8721/query?trigger=110:111&policy=PI'
//	curl 'localhost:8721/query?bench=gcc&limit=50'
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.Next()
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

// handleBatch starts an asynchronous experiment batch on a drain-tracked
// goroutine and returns its ID immediately; progress is visible via
// /batches and /metrics. During shutdown new batches are refused with 503.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	reqID := s.ids.Next()
	w.Header().Set("X-Request-Id", reqID)

	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = "baseline"
	}
	p := experiments.DefaultParams()
	// The coordinator's rules, checked up front. A worker batch covers
	// the whole suite at -insts, so only the policies are used.
	bq, err := bench.ParseBatch(r.URL.Query(), p.Policies, s.cfg.insts)
	if err != nil {
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest, err)
		return
	}
	p.Insts = s.cfg.insts
	p.Workers = s.cfg.workers
	p.Registry = s.reg
	p.Policies = bq.Policies

	var run func(experiments.Params) error
	switch kind {
	case "baseline":
		run = func(p experiments.Params) error { _, err := experiments.Baseline(p); return err }
	case "policies":
		run = func(p experiments.Params) error { _, err := experiments.RunPolicyEval(p); return err }
	case "proxies":
		run = func(p experiments.Params) error { _, _, err := experiments.ProxyTables(p, nil); return err }
	default:
		serving.WriteError(w, s.logf, reqID, http.StatusBadRequest,
			fmt.Errorf("unknown batch kind %q (baseline | policies | proxies)", kind))
		return
	}

	// Batches are admission-controlled too: each one fans a whole suite
	// out across -workers cores, so unbounded concurrent batches would
	// starve the fast /run and shed paths of CPU.
	s.mu.Lock()
	if s.batchRunning >= s.cfg.maxBatches {
		running := s.batchRunning
		s.mu.Unlock()
		shed := &serving.ShedError{Reason: fmt.Sprintf("%d batches already running", running), RetryAfter: 5 * time.Second}
		serving.WriteError(w, nil, reqID, http.StatusTooManyRequests, shed)
		return
	}
	s.batchRunning++
	s.nextID++
	st := &batchState{ID: s.nextID, Kind: kind, Started: time.Now(), Running: true}
	s.batches[st.ID] = st
	s.mu.Unlock()

	p.Progress = func(pr runner.Progress) {
		s.mu.Lock()
		st.Done, st.Total, st.Failed = pr.Done, pr.Total, pr.Failed
		s.mu.Unlock()
	}
	finish := func(err error) {
		s.mu.Lock()
		s.batchRunning--
		st.Running = false
		if err != nil {
			st.Error = err.Error()
		}
		s.mu.Unlock()
	}
	err = s.drain.Go(func(ctx context.Context) {
		p.Context = ctx
		finish(run(p))
	})
	if err != nil {
		finish(err)
		serving.WriteError(w, s.logf, reqID, http.StatusServiceUnavailable, err)
		return
	}
	s.mu.Lock()
	snap := *st // the batch goroutine mutates st concurrently
	s.mu.Unlock()
	s.writeJSON(w, reqID, http.StatusAccepted, snap)
}

func (s *server) handleBatches(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, "", http.StatusOK, s.snapshot())
}

// snapshot returns the batch table ordered by ID.
func (s *server) snapshot() []batchState {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]batchState, 0, len(s.batches))
	for id := 1; id <= s.nextID; id++ {
		if st, ok := s.batches[id]; ok {
			out = append(out, *st)
		}
	}
	return out
}

// writeJSON emits a JSON body and logs (rather than ignores) encode or
// write failures — by then the status line is committed, so logging is
// the only remaining channel.
func (s *server) writeJSON(w http.ResponseWriter, reqID string, status int, v any) {
	if err := serving.WriteJSON(w, status, v); err != nil {
		s.logf("req %s: writing response: %v", reqID, err)
	}
}
