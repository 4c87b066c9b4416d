package cluster

// In-process fleet tests: real HTTP workers (httptest) running the real
// simulator behind a real coordinator, so affinity, failover and hedging
// are exercised end to end — including killing a worker mid-batch by
// dropping its connections (panic(http.ErrAbortHandler) behaves like a
// SIGKILL from the coordinator's point of view).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/runindex"
	"repro/internal/runner"
	"repro/internal/sim"
)

// fleetWorker is a minimal but faithful stand-in for one cmd/serve
// process: it answers /healthz and /run (with the same bench.RunSummary
// body, including the volatile request_id/cached fields the coordinator
// must strip), optionally backed by the same content-addressed run cache.
type fleetWorker struct {
	srv     *httptest.Server
	cache   *runner.Cache[*sim.Result]
	catalog *runindex.Catalog // non-nil when the worker has a cache

	dead      atomic.Bool  // drop every connection (SIGKILL emulation)
	killAfter atomic.Int64 // > 0: die permanently after serving this many runs
	served    atomic.Int64
	delayMs   atomic.Int64 // straggler emulation for hedging tests
}

func newFleetWorker(t *testing.T, withCache bool) *fleetWorker {
	t.Helper()
	fw := &fleetWorker{}
	if withCache {
		c, err := runner.NewCacheWith[*sim.Result](runner.CacheConfig{Dir: t.TempDir()}, nil)
		if err != nil {
			t.Fatalf("worker cache: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		fw.cache = c
		cat, err := runindex.Open("", runindex.Options{})
		if err != nil {
			t.Fatalf("worker catalog: %v", err)
		}
		fw.catalog = cat
		c.SetIngest(func(key string, res *sim.Result) {
			cat.Ingest(runindex.FromResult(key, res))
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if fw.dead.Load() {
			panic(http.ErrAbortHandler)
		}
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/run", fw.handleRun)
	mux.HandleFunc("/query", fw.handleQuery)
	fw.srv = httptest.NewServer(mux)
	t.Cleanup(fw.srv.Close)
	return fw
}

func (fw *fleetWorker) handleRun(w http.ResponseWriter, r *http.Request) {
	if fw.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	n := fw.served.Add(1)
	if ka := fw.killAfter.Load(); ka > 0 && n > ka {
		fw.dead.Store(true)
		panic(http.ErrAbortHandler)
	}
	if d := fw.delayMs.Load(); d > 0 {
		select {
		case <-r.Context().Done():
			panic(http.ErrAbortHandler)
		case <-time.After(time.Duration(d) * time.Millisecond):
		}
	}

	q := r.URL.Query()
	insts, err := strconv.ParseUint(q.Get("insts"), 10, 64)
	if err != nil || insts == 0 {
		http.Error(w, "bad insts", http.StatusBadRequest)
		return
	}
	prof, err := bench.ByName(q.Get("bench"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := sim.Config{Workload: prof, MaxInsts: insts}
	if err := bench.ApplyPolicy(&cfg, q.Get("policy"), 0); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key, _ := sim.CacheKey(cfg)

	var res *sim.Result
	cached := false
	if fw.cache != nil {
		if hit, ok := fw.cache.Get(key); ok {
			res, cached = hit, true
		}
	}
	if res == nil {
		res, err = sim.RunContext(r.Context(), cfg)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		fw.cache.Put(key, res)
	}
	w.Header().Set("Content-Type", "application/json")
	// The volatile per-request fields differ on every response: the
	// coordinator's merge must not let them through.
	json.NewEncoder(w).Encode(bench.RunSummary{
		RequestID: fmt.Sprintf("%s-%06d", fw.srv.URL, n),
		Cached:    cached,
		Benchmark: res.Benchmark,
		Policy:    res.Policy,
		RunStats:  bench.StatsOf(res),
	})
}

// handleQuery mirrors cmd/serve's /query: 404 without a catalog, 400 on
// malformed filters, else the worker-local catalog answer.
func (fw *fleetWorker) handleQuery(w http.ResponseWriter, r *http.Request) {
	if fw.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	if fw.catalog == nil {
		http.Error(w, "no catalog", http.StatusNotFound)
		return
	}
	q, err := runindex.ParseQuery(r.URL.Query())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fw.catalog.Run(&q))
}

func newFleet(t *testing.T, n int, withCache bool) ([]*fleetWorker, []string) {
	t.Helper()
	workers := make([]*fleetWorker, n)
	urls := make([]string, n)
	for i := range workers {
		workers[i] = newFleetWorker(t, withCache)
		urls[i] = workers[i].srv.URL
	}
	return workers, urls
}

// newCoordinator stands up a coordinator over urls with test-friendly
// timings: no background prober (tests drive ProbeAll), mark-down after a
// single failure, millisecond backoff.
func newCoordinator(t *testing.T, urls []string, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Workers: urls,
		Insts:   20_000,
		Pool:    PoolConfig{ProbeEvery: -1, MarkDownAfter: 1},
		Dispatch: DispatchConfig{
			Retries:   4,
			RetryBase: time.Millisecond,
			RetryMax:  5 * time.Millisecond,
			Timeout:   30 * time.Second,
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s, mux, err := NewServer(ctx, cfg, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	hs := httptest.NewServer(mux)
	t.Cleanup(func() { hs.Close(); cancel() })
	return s, hs
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, body
}

// specKey reproduces the coordinator's routing key for one run, so tests
// can find which worker owns it.
func specKey(t *testing.T, benchName, policy string, insts uint64) string {
	t.Helper()
	cfg, err := bench.NewRun(benchName, policy, insts)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := makeSpec(bench.RunQuery{Bench: benchName, Policy: policy, Insts: insts}, cfg)
	if err != nil {
		t.Fatalf("makeSpec(%s,%s): %v", benchName, policy, err)
	}
	return spec.key
}

func TestClusterRunProxiesWithStickyWorker(t *testing.T) {
	_, urls := newFleet(t, 3, true)
	_, hs := newCoordinator(t, urls, nil)

	var first string
	for i := 0; i < 5; i++ {
		status, hdr, body := get(t, hs.URL+"/run?bench=gcc&policy=PI&insts=10000")
		if status != http.StatusOK {
			t.Fatalf("run %d: status %d: %s", i, status, body)
		}
		wkr := hdr.Get("X-Cluster-Worker")
		if wkr == "" {
			t.Fatalf("run %d: no X-Cluster-Worker header", i)
		}
		if first == "" {
			first = wkr
		} else if wkr != first {
			t.Errorf("run %d landed on %s, first on %s: affinity broken", i, wkr, first)
		}
		var sum struct {
			IPC    float64 `json:"ipc"`
			Cycles uint64  `json:"cycles"`
		}
		if err := json.Unmarshal(body, &sum); err != nil || sum.IPC <= 0 || sum.Cycles == 0 {
			t.Fatalf("run %d: bad body (err %v): %s", i, err, body)
		}
	}
}

func TestClusterBatchAffinityHitRatio(t *testing.T) {
	_, urls := newFleet(t, 3, true)
	s, hs := newCoordinator(t, urls, nil)

	const q = "/batch?benches=gcc,vortex,art,mesa&policies=PI,PID&insts=10000"
	var firstBody []byte
	for round := 0; round < 2; round++ {
		status, _, body := get(t, hs.URL+q)
		if status != http.StatusOK {
			t.Fatalf("batch round %d: status %d: %s", round, status, body)
		}
		var br bench.BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatalf("batch round %d: %v", round, err)
		}
		if br.Failed != 0 || len(br.Runs) != 8 {
			t.Fatalf("batch round %d: failed=%d runs=%d, want 0/8", round, br.Failed, len(br.Runs))
		}
		if round == 0 {
			firstBody = body
		} else if !bytes.Equal(firstBody, body) {
			t.Error("repeated batch bodies differ: merge is not deterministic")
		}
	}

	hits, misses := s.cm.AffinityHits.Value(), s.cm.AffinityMisses.Value()
	if hits+misses == 0 {
		t.Fatal("no dispatches counted")
	}
	if ratio := float64(hits) / float64(hits+misses); ratio < 0.9 {
		t.Errorf("affinity hit ratio %.2f (hits %d, misses %d), want >= 0.9", ratio, hits, misses)
	}
}

func TestClusterWorkerKilledMidBatchIsRequeued(t *testing.T) {
	benches := []string{"gcc", "vortex", "art"}
	policies := []string{"PI", "PID"}
	const insts = 10_000
	const q = "/batch?benches=gcc,vortex,art&policies=PI,PID&insts=10000"

	// Reference: the same batch computed by a single-worker cluster.
	_, refURLs := newFleet(t, 1, false)
	_, refHS := newCoordinator(t, refURLs, nil)
	refStatus, _, refBody := get(t, refHS.URL+q)
	if refStatus != http.StatusOK {
		t.Fatalf("reference batch: status %d: %s", refStatus, refBody)
	}

	// Fleet of three; find the worker that owns the most of the batch's
	// keys (pigeonhole: at least one owns >= 2) and arrange for it to die
	// after serving its first run — mid-batch, from the coordinator's
	// point of view.
	workers, urls := newFleet(t, 3, false)
	s, hs := newCoordinator(t, urls, nil)
	byURL := map[string]*fleetWorker{}
	for i, w := range workers {
		byURL[urls[i]] = w
	}
	owned := map[string]int{}
	for _, b := range benches {
		for _, p := range policies {
			owned[s.Pool().Owner(specKey(t, b, p, insts)).URL]++
		}
	}
	victimURL, max := "", 0
	for u, n := range owned {
		if n > max {
			victimURL, max = u, n
		}
	}
	if max < 2 {
		t.Fatalf("owner counts %v: no worker owns 2 keys", owned)
	}
	byURL[victimURL].killAfter.Store(1)

	status, _, body := get(t, hs.URL+q)
	if status != http.StatusOK {
		t.Fatalf("batch with kill: status %d: %s", status, body)
	}
	var br bench.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("batch with kill: %v", err)
	}
	if br.Failed != 0 || len(br.Errors) != 0 {
		t.Fatalf("batch with kill: failed=%d errors=%v, want none", br.Failed, br.Errors)
	}
	if !bytes.Equal(body, refBody) {
		t.Errorf("merged batch differs from single-worker reference:\n fleet: %s\n ref:   %s", body, refBody)
	}
	if got := s.cm.Requeued.Value(); got < 1 {
		t.Errorf("cluster_requeued_total = %d, want >= 1", got)
	}
	// The victim's in-flight success can race its fatal failure, flapping
	// it briefly back up; one probe round settles the corpse down.
	s.Pool().ProbeAll(context.Background())
	for _, w := range s.Pool().Workers() {
		if w.URL == victimURL && w.Up() {
			t.Error("killed worker still marked up after a probe round")
		}
	}
}

func TestClusterHedgeWinsWithoutDoubleCounting(t *testing.T) {
	workers, urls := newFleet(t, 2, false)
	s, _ := newCoordinator(t, urls, func(c *Config) {
		c.Dispatch.Retries = 0
		c.Dispatch.HedgeAfter = 50 * time.Millisecond
	})

	// Make the key's rendezvous owner a straggler, so the hedge fires and
	// the other worker answers first.
	key := specKey(t, "gcc", "PI", 10_000)
	owner := s.Pool().Owner(key)
	for i, u := range urls {
		if u == owner.URL {
			workers[i].delayMs.Store(2000)
		}
	}

	resp, err := s.Dispatcher().Do(context.Background(), key, "/run?bench=gcc&policy=PI&insts=10000")
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Status != http.StatusOK {
		t.Fatalf("status %d: %s", resp.Status, resp.Body)
	}
	if !resp.Hedged || resp.Worker == owner {
		t.Errorf("winner hedged=%v worker=%s, want hedge win on non-owner", resp.Hedged, resp.Worker.URL)
	}
	var sum struct {
		IPC float64 `json:"ipc"`
	}
	if err := json.Unmarshal(resp.Body, &sum); err != nil || sum.IPC <= 0 {
		t.Fatalf("bad winning body (err %v): %s", err, resp.Body)
	}

	m := s.cm
	if m.Dispatched.Value() != 1 {
		t.Errorf("cluster_dispatched_total = %d, want 1 (hedge must not double-count the run)", m.Dispatched.Value())
	}
	if m.Hedges.Value() != 1 || m.HedgeWins.Value() != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", m.Hedges.Value(), m.HedgeWins.Value())
	}
	// The cancelled straggler must not be marked down: it was our
	// cancellation, not its failure.
	if s.Pool().Healthy() != 2 {
		t.Errorf("healthy workers = %d after hedge, want 2", s.Pool().Healthy())
	}
}

func TestClusterHealthzAndMetricsSurface(t *testing.T) {
	workers, urls := newFleet(t, 2, false)
	s, hs := newCoordinator(t, urls, nil)

	status, _, body := get(t, hs.URL+"/run?bench=gcc&policy=PI&insts=10000")
	if status != http.StatusOK {
		t.Fatalf("run: status %d: %s", status, body)
	}

	status, _, body = get(t, hs.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	for _, family := range []string{
		"cluster_dispatched_total", "cluster_workers_up", "cluster_affinity_hits_total",
		"cluster_dispatch_seconds", "cluster_worker_0_dispatched_total", "cluster_worker_1_up",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}

	status, _, body = get(t, hs.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d: %s", status, body)
	}
	var h ClusterHealth
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	if h.Status != "ok" || h.HealthyWorkers != 2 || h.TotalWorkers != 2 || len(h.Workers) != 2 {
		t.Fatalf("healthz = %+v, want 2/2 ok", h)
	}

	// Kill the whole fleet: the prober marks both down, /healthz flips to
	// 503; revive them and the next probe round marks them back up.
	ctx := context.Background()
	for _, w := range workers {
		w.dead.Store(true)
	}
	s.Pool().ProbeAll(ctx)
	status, _, body = get(t, hs.URL+"/healthz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("all-down healthz: status %d: %s", status, body)
	}
	if s.cm.WorkersUp.Value() != 0 {
		t.Errorf("cluster_workers_up = %v, want 0", s.cm.WorkersUp.Value())
	}
	for _, w := range workers {
		w.dead.Store(false)
	}
	s.Pool().ProbeAll(ctx)
	status, _, _ = get(t, hs.URL+"/healthz")
	if status != http.StatusOK {
		t.Fatalf("revived healthz: status %d", status)
	}
	if s.cm.WorkersUp.Value() != 2 {
		t.Errorf("cluster_workers_up = %v after revival, want 2", s.cm.WorkersUp.Value())
	}
}

func TestClusterRunBadParams(t *testing.T) {
	_, urls := newFleet(t, 1, false)
	_, hs := newCoordinator(t, urls, nil)
	for _, q := range []string{
		"/run?bench=nope&policy=PI&insts=1000",
		"/run?bench=gcc&policy=nope&insts=1000",
		"/run?bench=gcc&policy=PI&insts=zero",
		"/batch?benches=gcc,bogus&policies=PI&insts=1000",
		"/batch?kind=baseline&benches=gcc&insts=1000",
	} {
		if status, _, body := get(t, hs.URL+q); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", q, status, body)
		}
	}
}

// TestClusterHedgeInflightBalanced is the regression test for the hedge
// inflight leak: a hedged attempt acquired a slot without an inflight
// increment, so send's deferred release drove the hedge target's count
// negative — and Pool.Route's least-loaded fallback then favored the
// "emptiest" worker for the wrong reason. Under concurrent hedged
// exchanges, no worker's inflight may ever go negative, and every
// worker must be back at exactly 0 once the dust settles.
func TestClusterHedgeInflightBalanced(t *testing.T) {
	workers, urls := newFleet(t, 2, false)
	s, _ := newCoordinator(t, urls, func(c *Config) {
		c.Dispatch.Retries = 0
		c.Dispatch.HedgeAfter = 20 * time.Millisecond
	})

	// Make the key's rendezvous owner a straggler so every exchange hedges.
	key := specKey(t, "gcc", "PI", 10_000)
	owner := s.Pool().Owner(key)
	for i, u := range urls {
		if u == owner.URL {
			workers[i].delayMs.Store(500)
		}
	}

	// Sample every worker's inflight while the exchanges are in flight:
	// the leak shows up as a transient negative long before the final
	// quiescent check.
	var sawNegative atomic.Bool
	stop := make(chan struct{})
	monitorDone := make(chan struct{})
	go func() {
		defer close(monitorDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, w := range s.Pool().Workers() {
				if w.inflight.Load() < 0 {
					sawNegative.Store(true)
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := s.Dispatcher().Do(context.Background(), key, "/run?bench=gcc&policy=PI&insts=10000")
			if err != nil {
				t.Errorf("Do: %v", err)
				return
			}
			if resp.Status != http.StatusOK {
				t.Errorf("status %d: %s", resp.Status, resp.Body)
			}
		}()
	}
	wg.Wait()
	// Do returns with the winner while each cancelled loser is still
	// unwinding its round trip; its deferred release runs on its own
	// goroutine a moment later. So the quiescent check waits, bounded,
	// for every count to settle, with the monitor still watching.
	deadline := time.Now().Add(5 * time.Second)
	for _, w := range s.Pool().Workers() {
		for w.inflight.Load() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	<-monitorDone

	if sawNegative.Load() {
		t.Error("a worker's inflight count went negative during hedged dispatches")
	}
	for _, w := range s.Pool().Workers() {
		if n := w.inflight.Load(); n != 0 {
			t.Errorf("worker %s inflight = %d after all exchanges settled, want 0", w.URL, n)
		}
	}
	if s.cm.Hedges.Value() == 0 {
		t.Error("no hedges fired: the test did not exercise the hedge path")
	}
}

// TestClusterQueryMergesAcrossWorkers spreads runs over two workers'
// caches (affinity routing splits the keys), then checks the
// coordinator's /query merges both catalogs: a range query spanning both
// workers' entries answers with every run, deduplicated and
// deterministically ordered, while each individual worker holds only a
// subset.
func TestClusterQueryMergesAcrossWorkers(t *testing.T) {
	workers, urls := newFleet(t, 2, true)
	_, hs := newCoordinator(t, urls, nil)

	benches := []string{"gcc", "art", "mesa"}
	policies := []string{"PI", "PID", "toggle1", "M"}
	total := len(benches) * len(policies)
	for _, b := range benches {
		for _, p := range policies {
			if code, _, body := get(t, hs.URL+"/run?bench="+b+"&policy="+p+"&insts=20000"); code != 200 {
				t.Fatalf("run %s/%s: %d %s", b, p, code, body)
			}
		}
	}
	perWorker := []int{workers[0].catalog.Len(), workers[1].catalog.Len()}
	if perWorker[0]+perWorker[1] != total {
		t.Fatalf("worker catalogs hold %v runs, want %d total", perWorker, total)
	}
	if perWorker[0] == 0 || perWorker[1] == 0 {
		t.Skipf("affinity routed every run to one worker (%v); merge not exercised", perWorker)
	}

	code, _, body := get(t, hs.URL+"/query?insts=20000")
	if code != 200 {
		t.Fatalf("query: %d %s", code, body)
	}
	var resp runindex.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("query body: %v", err)
	}
	if resp.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", resp.Workers)
	}
	if resp.Count != total {
		t.Fatalf("merged count = %d, want %d (per-worker %v)", resp.Count, total, perWorker)
	}
	for i := 1; i < len(resp.Rows); i++ {
		a, b := resp.Rows[i-1], resp.Rows[i]
		if a.Bench > b.Bench || (a.Bench == b.Bench && a.Policy > b.Policy) {
			t.Fatalf("rows not sorted: %s/%s before %s/%s", a.Bench, a.Policy, b.Bench, b.Policy)
		}
	}

	// The same query again returns the identical document (determinism),
	// and a narrower range filter subsets it.
	_, _, body2 := get(t, hs.URL+"/query?insts=20000")
	if !bytes.Equal(body, body2) {
		t.Fatal("repeated merged query differs")
	}
	code, _, body = get(t, hs.URL+"/query?trigger=110:112&bench=gcc")
	if code != 200 {
		t.Fatalf("range query: %d %s", code, body)
	}
	var ranged runindex.QueryResponse
	if err := json.Unmarshal(body, &ranged); err != nil {
		t.Fatal(err)
	}
	if ranged.Count == 0 || ranged.Count > resp.Count {
		t.Fatalf("range query count %d out of bounds (full %d)", ranged.Count, resp.Count)
	}
	for _, row := range ranged.Rows {
		if row.Trigger < 110 || row.Trigger >= 112 {
			t.Fatalf("row trigger %g outside [110,112)", row.Trigger)
		}
	}

	// Malformed filters fail fast at the coordinator.
	if code, _, _ := get(t, hs.URL+"/query?trigger=nope"); code != http.StatusBadRequest {
		t.Fatalf("bad filter: %d, want 400", code)
	}
}
