package main

// httptest coverage for the serve handlers: parameter validation, the
// cache-hit path, admission shedding, deadline expiry, client-disconnect
// accounting, the /batch grid (and its identity with the coordinator's)
// and shutdown drain.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/serving"
)

// quiet is a no-op logger; tests that assert on log content pass their own.
func quiet(string, ...any) {}

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	return startServer(t, context.Background(), cfg)
}

// startServer is testServer with parent as the server's lifetime:
// cancelling it drains the server.
func startServer(t *testing.T, parent context.Context, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.insts == 0 {
		cfg.insts = 20_000
	}
	if cfg.admission.MaxInFlight == 0 {
		cfg.admission.MaxInFlight = 4
	}
	s, mux, err := newServer(parent, cfg, quiet)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return s, ts
}

func getJSON(t *testing.T, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if into != nil {
		if err := json.Unmarshal(body, into); err != nil {
			t.Fatalf("body %q is not JSON: %v", body, err)
		}
	}
	return resp
}

func TestHealthzReadinessBody(t *testing.T) {
	_, ts := testServer(t, serverConfig{cacheDir: t.TempDir()})
	var h serving.Health
	r := getJSON(t, ts.URL+"/healthz", &h)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", r.StatusCode)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.MaxInFlight != 4 || h.InFlight != 0 {
		t.Errorf("capacity view = %+v, want max_inflight 4, inflight 0", h)
	}
	if !h.CacheDir {
		t.Error("cache_dir = false with a cache configured")
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime = %v, want >= 0", h.UptimeSeconds)
	}
}

func TestHealthzDrainingBody(t *testing.T) {
	life, drain := context.WithCancel(context.Background())
	_, ts := startServer(t, life, serverConfig{})
	drain()
	var h serving.Health
	r := getJSON(t, ts.URL+"/healthz", &h)
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", r.StatusCode)
	}
	if h.Status != "draining" {
		t.Errorf("status = %q, want draining", h.Status)
	}
}

func TestRunBadParams(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for _, q := range []string{
		"insts=notanumber",
		"insts=0",
		"bench=nosuchbench",
		"policy=nosuchpolicy",
	} {
		var resp serving.ErrorResponse
		r := getJSON(t, ts.URL+"/run?"+q, &resp)
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /run?%s = %d, want 400", q, r.StatusCode)
		}
		if resp.Error == "" || resp.Status != http.StatusBadRequest || resp.RequestID == "" {
			t.Errorf("GET /run?%s: structured error incomplete: %+v", q, resp)
		}
	}
}

func TestRunOK(t *testing.T) {
	_, ts := testServer(t, serverConfig{runTimeout: 30 * time.Second})
	var out map[string]any
	r := getJSON(t, ts.URL+"/run?insts=20000", &out)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", r.StatusCode)
	}
	if r.Header.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
	if out["benchmark"] != "gcc" || out["policy"] == "" {
		t.Errorf("summary = %v", out)
	}
	if out["cached"] != false {
		t.Errorf("cached = %v, want false on a fresh run", out["cached"])
	}
}

func TestRunCacheHitPath(t *testing.T) {
	s, ts := testServer(t, serverConfig{cacheDir: t.TempDir(), runTimeout: 30 * time.Second})
	var first, second map[string]any
	if r := getJSON(t, ts.URL+"/run?insts=20000&policy=PI", &first); r.StatusCode != 200 {
		t.Fatalf("first run: %d", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/run?insts=20000&policy=PI", &second); r.StatusCode != 200 {
		t.Fatalf("second run: %d", r.StatusCode)
	}
	if first["cached"] != false || second["cached"] != true {
		t.Fatalf("cached flags = %v/%v, want false/true", first["cached"], second["cached"])
	}
	if first["ipc"] != second["ipc"] || first["cycles"] != second["cycles"] {
		t.Errorf("cache replay diverged: %v vs %v", first, second)
	}
	if s.cache.Len() == 0 {
		t.Error("run not stored in cache")
	}
}

func TestRunDeadlineReturns504(t *testing.T) {
	_, ts := testServer(t, serverConfig{runTimeout: 20 * time.Millisecond})
	var resp serving.ErrorResponse
	r := getJSON(t, ts.URL+"/run?insts=500000000", &resp)
	if r.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", r.StatusCode)
	}
	if resp.RequestID == "" {
		t.Error("504 body missing request_id")
	}
}

func TestRunShedsWith429WhenSaturated(t *testing.T) {
	s, ts := testServer(t, serverConfig{
		admission: serving.AdmissionConfig{MaxInFlight: 1, MaxQueue: -1, MaxWait: 100 * time.Millisecond},
	})
	// Occupy the only slot directly, then watch a request shed.
	release, err := s.adm.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	var resp serving.ErrorResponse
	r := getJSON(t, ts.URL+"/run?insts=20000", &resp)
	shedLatency := time.Since(start)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}
	if resp.RetryAfterSeconds < 1 {
		t.Errorf("retry_after_seconds = %d, want >= 1", resp.RetryAfterSeconds)
	}
	// The acceptance bound is p99 < 10ms; a single in-process request
	// has far less excuse.
	if shedLatency > 50*time.Millisecond {
		t.Errorf("shed took %v, want fast rejection", shedLatency)
	}
	if got := s.sm.ShedQueueFull.Value(); got != 1 {
		t.Errorf("ShedQueueFull = %d, want 1", got)
	}

	// With the slot free again the same request is admitted.
	release()
	if r := getJSON(t, ts.URL+"/run?insts=20000", nil); r.StatusCode != http.StatusOK {
		t.Errorf("post-release status = %d, want 200", r.StatusCode)
	}
}

func TestClientDisconnectCountsAs499(t *testing.T) {
	// Chaos with SlowProb=1 stalls every run long enough for the client
	// to hang up first.
	s, ts := testServer(t, serverConfig{
		chaos: serving.NewChaos(1, 0, 1, 2*time.Second),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/run?insts=20000", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := http.DefaultClient.Do(req); err == nil {
		t.Fatal("expected client-side cancellation error")
	}
	// The handler finishes asynchronously; poll the 499 counter.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.sm.ResponsesClientGone.Value() == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("client disconnect recorded as %d 499s (5xx=%d), want 1",
		s.sm.ResponsesClientGone.Value(), s.sm.ResponsesServerError.Value())
}

// getBody fetches url and returns its status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestBatchLifecycle: /batch answers the grid it was asked for, one row
// per cell in benchmark-major order, and every cell lands in the run
// cache: a /run of any of them afterwards is a hit. Two identical batches
// at once share the cache and answer alike.
func TestBatchLifecycle(t *testing.T) {
	s, ts := testServer(t, serverConfig{cacheDir: t.TempDir()})
	const grid = "/batch?benches=gcc,art&policies=none,PI&insts=5000"
	bodies := make(chan []byte, 2)
	for range 2 {
		go func() {
			resp, err := http.Get(ts.URL + grid)
			if err != nil {
				bodies <- nil
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				body = nil
			}
			bodies <- body
		}()
	}
	first, second := <-bodies, <-bodies
	if first == nil || !bytes.Equal(first, second) {
		t.Fatalf("concurrent batches answered differently:\n%s\n%s", first, second)
	}
	var br bench.BatchResponse
	if err := json.Unmarshal(first, &br); err != nil {
		t.Fatal(err)
	}
	if br.Insts != 5000 || br.Failed != 0 || len(br.Errors) != 0 || len(br.Runs) != 4 {
		t.Fatalf("batch = %+v, want 4 runs at 5000 insts and no failures", br)
	}
	want := [][2]string{{"gcc", "none"}, {"gcc", "PI"}, {"art", "none"}, {"art", "PI"}}
	for i, row := range br.Runs {
		if row.Index != i || row.Benchmark != want[i][0] || row.Policy != want[i][1] || row.Cycles == 0 || row.IPC <= 0 {
			t.Errorf("row %d = %+v, want %s/%s with stats", i, row, want[i][0], want[i][1])
		}
	}
	if s.cache.Len() != 4 {
		t.Errorf("cache holds %d runs after the batch, want 4", s.cache.Len())
	}
	for _, c := range want {
		var sum bench.RunSummary
		getJSON(t, fmt.Sprintf("%s/run?bench=%s&policy=%s&insts=5000", ts.URL, c[0], c[1]), &sum)
		if !sum.Cached {
			t.Errorf("/run of batch cell %s/%s was not a cache hit", c[0], c[1])
		}
	}
}

// TestBatchMatchesCoordinator is the identity gate between the two /batch
// surfaces: one worker and a one-worker coordinator answer the same grid
// with byte-identical bodies, with and without a run cache. With a cache,
// the batch's cells are then /run hits and /query finds them.
func TestBatchMatchesCoordinator(t *testing.T) {
	const grid = "/batch?benches=gcc,art&policies=none,toggle1,PI&insts=20000"
	for _, cached := range []bool{false, true} {
		t.Run(fmt.Sprintf("cache=%v", cached), func(t *testing.T) {
			cfg := serverConfig{}
			if cached {
				cfg.cacheDir = t.TempDir()
			}
			_, worker := testServer(t, cfg)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			_, mux, err := cluster.NewServer(ctx, cluster.Config{Workers: []string{worker.URL}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			coord := httptest.NewServer(mux)
			defer coord.Close()

			ws, wbody := getBody(t, worker.URL+grid)
			cs, cbody := getBody(t, coord.URL+grid)
			if ws != http.StatusOK || cs != http.StatusOK {
				t.Fatalf("worker %d, coordinator %d, want 200/200:\n%s\n%s", ws, cs, wbody, cbody)
			}
			if !bytes.Equal(wbody, cbody) {
				t.Fatalf("worker and coordinator bodies differ:\nworker: %s\ncoord:  %s", wbody, cbody)
			}
			if !cached {
				return
			}
			for _, b := range []string{"gcc", "art"} {
				for _, p := range []string{"none", "toggle1", "PI"} {
					var sum bench.RunSummary
					getJSON(t, fmt.Sprintf("%s/run?bench=%s&policy=%s&insts=20000", worker.URL, b, p), &sum)
					if !sum.Cached {
						t.Errorf("/run of cell %s/%s answered cached=false", b, p)
					}
				}
				var q struct {
					Count int `json:"count"`
					Rows  []struct {
						Bench string `json:"bench"`
					} `json:"rows"`
				}
				getJSON(t, worker.URL+"/query?bench="+b, &q)
				if q.Count != 3 {
					t.Errorf("/query?bench=%s found %d cells, want 3", b, q.Count)
				}
				for _, row := range q.Rows {
					if row.Bench != b {
						t.Errorf("/query?bench=%s returned a %s row", b, row.Bench)
					}
				}
			}
		})
	}
}

// TestRunRequestIDThroughCoordinator: a /run through a one-worker
// coordinator answers with one request ID, in the header and the body:
// the coordinator's own, or the caller's when it sent a valid one.
func TestRunRequestIDThroughCoordinator(t *testing.T) {
	_, worker := testServer(t, serverConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, mux, err := cluster.NewServer(ctx, cluster.Config{Workers: []string{worker.URL}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(mux)
	defer coord.Close()
	for _, sent := range []string{"", "smoke-1", "bad id"} {
		req, err := http.NewRequest(http.MethodGet, coord.URL+"/run?bench=gcc&policy=PI&insts=20000", nil)
		if err != nil {
			t.Fatal(err)
		}
		if sent != "" {
			req.Header.Set("X-Request-Id", sent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var sum bench.RunSummary
		err = json.NewDecoder(resp.Body).Decode(&sum)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("X-Request-Id %q: status %d, %v", sent, resp.StatusCode, err)
		}
		hdr := resp.Header.Get("X-Request-Id")
		if hdr == "" || hdr != sum.RequestID {
			t.Errorf("X-Request-Id %q: header %q, body %q, want one ID", sent, hdr, sum.RequestID)
		}
		if adopted := hdr == sent; adopted != (sent == "smoke-1") {
			t.Errorf("X-Request-Id %q answered as %q", sent, hdr)
		}
	}
}

// startLongBatch sends a batch far too long to finish in the background
// and waits until it holds its admission slot (see startLong).
func startLongBatch(t *testing.T, ctx context.Context, s *server, url string) <-chan []byte {
	t.Helper()
	return startLong(t, ctx, s, url+"/batch?benches=gcc&policies=none&insts=500000000")
}

// startLong sends a request for url, a run or batch far too long to
// finish, in the background and waits until it holds its admission slot.
// The returned channel yields the body (nil if the request failed) once
// the handler answers.
func startLong(t *testing.T, ctx context.Context, s *server, url string) <-chan []byte {
	t.Helper()
	done := make(chan []byte, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			done <- nil
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		done <- body
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.adm.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the batch never took its admission slot")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return done
}

// TestBatchConcurrencyCap: a batch holds an admission slot for its whole
// run, so on a one-slot worker without a queue a /run during a batch is
// shed with 429 and Retry-After.
func TestBatchConcurrencyCap(t *testing.T) {
	s, ts := testServer(t, serverConfig{
		admission: serving.AdmissionConfig{MaxInFlight: 1, MaxQueue: -1},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := startLongBatch(t, ctx, s, ts.URL)

	var resp serving.ErrorResponse
	r := getJSON(t, ts.URL+"/run?insts=20000", &resp)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Errorf("/run during a batch = %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("shed missing Retry-After")
	}
	// Hang up on the long batch; its cells are cancelled and its slot
	// comes back.
	cancel()
	<-done
	deadline := time.Now().Add(20 * time.Second)
	for s.adm.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the cancelled batch never released its slot")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchUnknownKind: /batch has no suite kinds; a kind= query is a 400
// pointing at the grid parameters, not the default grid.
func TestBatchUnknownKind(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for _, kind := range []string{"baseline", "nope"} {
		var resp serving.ErrorResponse
		r := getJSON(t, ts.URL+"/batch?kind="+kind, &resp)
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("kind=%s: status = %d, want 400", kind, r.StatusCode)
		}
		if !strings.Contains(resp.Error, "policies=none") {
			t.Errorf("kind=%s: error body %q does not name policies=none", kind, resp.Error)
		}
	}
}

// TestBatchRejectsBadParameters: a batch's parameters are checked by the
// coordinator's rules before it takes an admission slot, so a bad grid is
// a 400 and nothing is admitted.
func TestBatchRejectsBadParameters(t *testing.T) {
	s, ts := testServer(t, serverConfig{})
	for _, q := range []string{"policies=bogus", "policies=PI,", "benches=doom", "insts=0"} {
		var resp serving.ErrorResponse
		if r := getJSON(t, ts.URL+"/batch?"+q, &resp); r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, r.StatusCode)
		}
	}
	if n := s.sm.Admitted.Value(); n != 0 {
		t.Errorf("rejected requests took %d admission slots", n)
	}
}

// TestShutdownDrainsBatches: cancelling the server's lifetime cancels a
// running batch, which answers promptly with a structured 503; /healthz
// then reads draining and new batches are refused.
func TestShutdownDrainsBatches(t *testing.T) {
	life, drain := context.WithCancel(context.Background())
	s, ts := startServer(t, life, serverConfig{})
	done := startLongBatch(t, context.Background(), s, ts.URL)

	start := time.Now()
	drain()
	var body []byte
	select {
	case body = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the running batch did not answer after the drain began")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("batch took %v to answer the drain, cancellation should be prompt", d)
	}
	var resp serving.ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("batch answer %q is not a structured error: %v", body, err)
	}
	if resp.Status != http.StatusServiceUnavailable || !strings.Contains(resp.Error, "shutting down") || resp.RequestID == "" {
		t.Errorf("cancelled batch answered %+v, want a 503 naming the shutdown", resp)
	}

	if r := getJSON(t, ts.URL+"/batch?benches=gcc&policies=none", &resp); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch after drain = %d, want 503", r.StatusCode)
	}
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain = %d, want 503", hr.StatusCode)
	}
}

// TestShutdownDrainsRuns: a /run follows the server's lifetime as a batch
// does. Ending the lifetime mid-run answers the client with a structured
// 503 within seconds, the drain returns inside its timeout, and it closes
// the cache and the catalog only after the handler has returned.
func TestShutdownDrainsRuns(t *testing.T) {
	life, end := context.WithCancel(context.Background())
	s, ts := startServer(t, life, serverConfig{cacheDir: t.TempDir()})
	// Leaving on failure ends the run, so the server's cleanup cannot hang.
	client, leave := context.WithCancel(context.Background())
	t.Cleanup(leave)
	done := startLong(t, client, s, ts.URL+"/run?bench=gcc&policy=PI&insts=500000000")

	start := time.Now()
	end()
	drained := make(chan error, 1)
	go func() { drained <- s.drain(ts.Config, 10*time.Second) }()
	var body []byte
	select {
	case body = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("the running /run did not answer after the drain began")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("/run took %v to answer the drain, cancellation should be prompt", d)
	}
	var resp serving.ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("/run answer %q is not a structured error: %v", body, err)
	}
	if resp.Status != http.StatusServiceUnavailable || !strings.Contains(resp.Error, "shutting down") || resp.RequestID == "" {
		t.Errorf("cancelled /run answered %+v, want a 503 naming the shutdown", resp)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("the drain overran its timeout")
	}
	if err := s.catalog.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("closing the catalog again after the drain = %v, want os.ErrClosed", err)
	}
}

func TestMetricsEndpointExposesServingFamily(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	if r := getJSON(t, ts.URL+"/run?insts=20000", nil); r.StatusCode != 200 {
		t.Fatalf("run: %d", r.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, metric := range []string{
		"serve_admitted_total",
		"serve_responses_2xx_total",
		"serve_request_seconds_bucket",
		"serve_admission_wait_seconds_bucket",
		"sim_cycles_total",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("/metrics missing %s", metric)
		}
	}
}

// TestChaosDiskFaultsStayGraceful drives the cache-hit path with a chaos
// source that fails most disk operations: requests must still answer 200
// (degrading to recomputes), never 5xx.
func TestChaosDiskFaultsStayGraceful(t *testing.T) {
	s, ts := testServer(t, serverConfig{
		cacheDir:   t.TempDir(),
		runTimeout: 30 * time.Second,
		chaos:      serving.NewChaos(7, 0.8, 0, 0),
	})
	for i := 0; i < 6; i++ {
		r := getJSON(t, fmt.Sprintf("%s/run?insts=20000&policy=PI", ts.URL), nil)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d under disk chaos = %d, want 200", i, r.StatusCode)
		}
	}
	if s.sm.ResponsesServerError.Value() != 0 {
		t.Errorf("disk chaos surfaced %d server errors", s.sm.ResponsesServerError.Value())
	}
}

func TestQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	_, ts := testServer(t, serverConfig{cacheDir: dir, runTimeout: 30 * time.Second})
	// Three runs with distinct triggers (policy PI sets a setpoint, toggle1
	// a trigger temperature); each Put flows into the catalog.
	for _, p := range []string{"PI", "PID", "toggle1"} {
		if r := getJSON(t, ts.URL+"/run?insts=20000&policy="+p, nil); r.StatusCode != 200 {
			t.Fatalf("run %s: %d", p, r.StatusCode)
		}
	}
	var resp struct {
		Count   int `json:"count"`
		Records int `json:"records"`
		Rows    []struct {
			Key     string  `json:"key"`
			Bench   string  `json:"bench"`
			Policy  string  `json:"policy"`
			Trigger float64 `json:"trigger"`
			IPC     float64 `json:"ipc"`
		} `json:"rows"`
	}
	if r := getJSON(t, ts.URL+"/query", &resp); r.StatusCode != 200 {
		t.Fatalf("query: %d", r.StatusCode)
	}
	if resp.Records != 3 || resp.Count != 3 {
		t.Fatalf("unfiltered query: count=%d records=%d, want 3/3", resp.Count, resp.Records)
	}
	if r := getJSON(t, ts.URL+"/query?policy=PI", &resp); r.StatusCode != 200 || resp.Count != 1 {
		t.Fatalf("policy filter: status=%d count=%d", r.StatusCode, resp.Count)
	}
	if resp.Rows[0].Policy != "PI" || resp.Rows[0].Bench != "gcc" || resp.Rows[0].Key == "" {
		t.Fatalf("row = %+v", resp.Rows[0])
	}
	// Range scan over the trigger dimension finds the controlled runs.
	if r := getJSON(t, ts.URL+"/query?trigger=100:120", &resp); r.StatusCode != 200 || resp.Count == 0 {
		t.Fatalf("trigger range: status=%d count=%d", r.StatusCode, resp.Count)
	}
	for _, row := range resp.Rows {
		if row.Trigger < 100 || row.Trigger >= 120 {
			t.Fatalf("trigger %g outside [100,120)", row.Trigger)
		}
	}
	// Malformed filters are 400s.
	if r := getJSON(t, ts.URL+"/query?trigger=5:1", nil); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("inverted range: %d, want 400", r.StatusCode)
	}
}

func TestQueryWithoutCacheIs404(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	if r := getJSON(t, ts.URL+"/query", nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("query without catalog: %d, want 404", r.StatusCode)
	}
}

// TestCatalogRebuildOnColdStart: the catalog lives in the pack store's
// needles, not beside them, so a new server over the directory rebuilds
// it from the store's open-time scan.
func TestCatalogRebuildOnColdStart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServer(t, serverConfig{cacheDir: dir, runTimeout: 30 * time.Second})
	if r := getJSON(t, ts1.URL+"/run?insts=20000&policy=PI", nil); r.StatusCode != 200 {
		t.Fatalf("seed run: %d", r.StatusCode)
	}
	ts1.Close()
	s1.cache.Close()
	s1.catalog.Close()
	if _, err := os.Stat(filepath.Join(dir, "catalog")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the cache directory holds a catalog/ beside its pack volumes: %v", err)
	}
	_, ts2 := testServer(t, serverConfig{cacheDir: dir, runTimeout: 30 * time.Second})
	var resp struct {
		Records int `json:"records"`
	}
	if r := getJSON(t, ts2.URL+"/query", &resp); r.StatusCode != 200 {
		t.Fatalf("query after rebuild: %d", r.StatusCode)
	}
	if resp.Records != 1 {
		t.Fatalf("rebuilt catalog holds %d records, want 1", resp.Records)
	}
}
