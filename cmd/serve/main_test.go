package main

// httptest coverage for the serve handlers: parameter validation, the
// cache-hit path, admission shedding, deadline expiry, client-disconnect
// accounting, batch lifecycle and shutdown drain.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/serving"
)

// quiet is a no-op logger; tests that assert on log content pass their own.
func quiet(string, ...any) {}

func testServer(t *testing.T, cfg serverConfig) (*server, *httptest.Server) {
	t.Helper()
	if cfg.insts == 0 {
		cfg.insts = 20_000
	}
	if cfg.admission.MaxInFlight == 0 {
		cfg.admission.MaxInFlight = 4
	}
	s, mux, err := newServer(context.Background(), cfg, quiet)
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
	s, ts := testServer(t, serverConfig{})
	if !s.drain.Shutdown(time.Second) {
		t.Fatal("drain timed out")
	}
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

func TestBatchLifecycle(t *testing.T) {
	_, ts := testServer(t, serverConfig{insts: 5_000})
	var st batchState
	r := getJSON(t, ts.URL+"/batch?kind=baseline", &st)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", r.StatusCode)
	}
	if st.ID == 0 || st.Kind != "baseline" || !st.Running {
		t.Fatalf("batch state = %+v", st)
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		var all []batchState
		getJSON(t, ts.URL+"/batches", &all)
		if len(all) == 1 && !all[0].Running {
			if all[0].Error != "" {
				t.Fatalf("batch failed: %s", all[0].Error)
			}
			if all[0].Done == 0 || all[0].Done != all[0].Total {
				t.Fatalf("batch finished with done=%d total=%d", all[0].Done, all[0].Total)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never finished: %+v", all)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestBatchConcurrencyCap(t *testing.T) {
	s, ts := testServer(t, serverConfig{insts: 50_000_000, maxBatches: 1})
	if r := getJSON(t, ts.URL+"/batch?kind=baseline", nil); r.StatusCode != http.StatusAccepted {
		t.Fatalf("first batch: %d", r.StatusCode)
	}
	var resp serving.ErrorResponse
	r := getJSON(t, ts.URL+"/batch?kind=baseline", &resp)
	if r.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch = %d, want 429", r.StatusCode)
	}
	if r.Header.Get("Retry-After") == "" {
		t.Error("batch shed missing Retry-After")
	}
	// Cancel the long batch so the test does not burn CPU to the end.
	if !s.drain.Shutdown(30 * time.Second) {
		t.Fatal("drain timed out")
	}
}

func TestBatchUnknownKind(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	var resp serving.ErrorResponse
	r := getJSON(t, ts.URL+"/batch?kind=nope", &resp)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", r.StatusCode)
	}
	if !strings.Contains(resp.Error, "nope") {
		t.Errorf("error body %q does not name the bad kind", resp.Error)
	}
}

// TestBatchRejectsBadParameters: the worker checks a batch's parameters
// by the coordinator's rules before it starts one, so a bad policy list is
// a 400 and no batch is recorded.
func TestBatchRejectsBadParameters(t *testing.T) {
	_, ts := testServer(t, serverConfig{})
	for _, q := range []string{"kind=policies&policies=bogus", "kind=policies&policies=PI,", "benches=doom", "insts=0"} {
		var resp serving.ErrorResponse
		if r := getJSON(t, ts.URL+"/batch?"+q, &resp); r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, r.StatusCode)
		}
	}
	var all []batchState
	getJSON(t, ts.URL+"/batches", &all)
	if len(all) != 0 {
		t.Errorf("rejected requests left %d batches", len(all))
	}
}

func TestShutdownDrainsBatches(t *testing.T) {
	s, ts := testServer(t, serverConfig{insts: 50_000_000}) // far too big to finish
	var st batchState
	if r := getJSON(t, ts.URL+"/batch?kind=baseline", &st); r.StatusCode != http.StatusAccepted {
		t.Fatalf("batch start: %d", r.StatusCode)
	}

	// Drain: the long batch must be cancelled and awaited, not abandoned.
	start := time.Now()
	if !s.drain.Shutdown(30 * time.Second) {
		t.Fatal("drain timed out")
	}
	if time.Since(start) > 20*time.Second {
		t.Errorf("drain took %v, cancellation should be prompt", time.Since(start))
	}
	var all []batchState
	getJSON(t, ts.URL+"/batches", &all)
	if len(all) != 1 || all[0].Running {
		t.Fatalf("batch still running after drain: %+v", all)
	}
	if all[0].Error == "" || !strings.Contains(all[0].Error, "cancel") {
		t.Errorf("cancelled batch error = %q, want a cancellation", all[0].Error)
	}

	// After drain begins: no new batches, health reports draining.
	var resp serving.ErrorResponse
	if r := getJSON(t, ts.URL+"/batch?kind=baseline", &resp); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch after drain = %d, want 503", r.StatusCode)
	}
	if !strings.Contains(resp.Error, "shutting down") {
		t.Errorf("error body = %q, want draining message", resp.Error)
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

func TestCatalogRebuildOnColdStart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServer(t, serverConfig{cacheDir: dir, runTimeout: 30 * time.Second})
	if r := getJSON(t, ts1.URL+"/run?insts=20000&policy=PI", nil); r.StatusCode != 200 {
		t.Fatalf("seed run: %d", r.StatusCode)
	}
	ts1.Close()
	s1.cache.Close()
	s1.catalog.Close()
	// Lose the catalog but keep the pack store: a new server rebuilds the
	// index from the store scan.
	if err := os.RemoveAll(filepath.Join(dir, "catalog")); err != nil {
		t.Fatal(err)
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
