package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestRequestIDsUnique(t *testing.T) {
	ids := NewRequestIDs()
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := ids.next()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
	}
}

// TestRequestIDsAdoptValidIncoming: a forwarded X-Request-Id is adopted
// only when it is 1–64 bytes of [A-Za-z0-9._-]; anything else is replaced
// by a minted ID, so a client cannot inject log-breaking text.
func TestRequestIDsAdoptValidIncoming(t *testing.T) {
	ids := NewRequestIDs()
	for in, adopt := range map[string]bool{
		"smoke-1":               true,
		"a1b2c3-4f5e6-000042":   true,
		"A.b_C-9":               true,
		strings.Repeat("x", 64): true,
		"":                      false,
		strings.Repeat("x", 65): false,
		"has space":             false,
		"new\nline":             false,
		"semi;colon":            false,
		"ünïcode":               false,
	} {
		req := httptest.NewRequest(http.MethodGet, "/run", nil)
		if in != "" {
			req.Header.Set("X-Request-Id", in)
		}
		if got := ids.For(req); (got == in) != adopt || got == "" {
			t.Errorf("For(%q) = %q, adopt = %v", in, got, adopt)
		}
	}
}

func TestWriteErrorShedSetsRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	var logged []string
	logf := func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	shed := &ShedError{Reason: "queue full", RetryAfter: 250 * time.Millisecond}
	WriteError(rec, logf, "req-1", http.StatusTooManyRequests, shed)

	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want 1 (sub-second hint rounds up)", got)
	}
	var resp ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if resp.RequestID != "req-1" || resp.Status != 429 || resp.RetryAfterSeconds != 1 {
		t.Fatalf("bad error body: %+v", resp)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "req-1") {
		t.Fatalf("log lines = %q, want one mentioning req-1", logged)
	}
}

func TestWriteJSONReportsEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	if err := WriteJSON(rec, http.StatusOK, func() {}); err == nil {
		t.Fatal("encoding a func must fail, got nil error")
	}
}

func TestStatusForRunError(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{context.Canceled, StatusClientClosedRequest},
		{fmt.Errorf("sim aborted: %w", context.Canceled), StatusClientClosedRequest},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{fmt.Errorf("run: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{errors.New("thermal solver diverged"), http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := StatusForRunError(c.err); got != c.want {
			t.Errorf("StatusForRunError(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestInstrumentCountsStatusClasses(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewServingMetrics(reg)
	handler := func(status int) http.HandlerFunc {
		return Instrument(m, func(w http.ResponseWriter, _ *http.Request) {
			if status == http.StatusOK {
				fmt.Fprintln(w, "ok") // implicit 200 via Write
				return
			}
			w.WriteHeader(status)
		})
	}
	for _, status := range []int{200, 400, 429, 500, 499} {
		req := httptest.NewRequest(http.MethodGet, "/x", nil)
		handler(status).ServeHTTP(httptest.NewRecorder(), req)
	}
	if got := m.ResponsesOK.Value(); got != 1 {
		t.Errorf("2xx = %d, want 1", got)
	}
	if got := m.ResponsesClientError.Value(); got != 2 {
		t.Errorf("4xx = %d, want 2 (400 + 429)", got)
	}
	if got := m.ResponsesServerError.Value(); got != 1 {
		t.Errorf("5xx = %d, want 1", got)
	}
	if got := m.ResponsesClientGone.Value(); got != 1 {
		t.Errorf("499 = %d, want 1", got)
	}
	if got := m.RequestSeconds.Count(); got != 5 {
		t.Errorf("latency observations = %d, want 5", got)
	}
}
