package serving

// HTTP plumbing shared by the serve handlers: request-ID minting,
// structured JSON error responses, run-error → status mapping (including
// the nginx-style 499 for clients that hang up mid-simulation), and a
// latency/status-class instrumentation middleware over the telemetry
// registry.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// StatusClientClosedRequest is the conventional (nginx) status for "the
// client went away before the response was ready". It is never actually
// received by that client; it exists so logs and metrics distinguish
// client disconnects from real server errors.
const StatusClientClosedRequest = 499

// RequestIDs mints unique request identifiers: a per-process prefix plus a
// monotone counter, e.g. "a1b2c3-000042".
type RequestIDs struct {
	prefix string
	n      atomic.Uint64
}

// NewRequestIDs builds a minter whose prefix is derived from the process
// identity and start time, so IDs from different server instances do not
// collide in shared logs.
func NewRequestIDs() *RequestIDs {
	return &RequestIDs{prefix: fmt.Sprintf("%x-%x", os.Getpid(), time.Now().UnixNano()&0xffffff)}
}

// next returns a fresh request ID.
func (r *RequestIDs) next() string {
	return fmt.Sprintf("%s-%06d", r.prefix, r.n.Add(1))
}

// For returns the ID that answers req: its own X-Request-Id when that is
// 1–64 bytes of [A-Za-z0-9._-] (a coordinator forwards its ID to the
// worker, so both log and answer one ID), else a fresh one.
func (r *RequestIDs) For(req *http.Request) string {
	if id := req.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return r.next()
}

func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// ErrorResponse is the structured JSON body of every non-2xx response.
type ErrorResponse struct {
	Error             string `json:"error"`
	Status            int    `json:"status"`
	RequestID         string `json:"request_id,omitempty"`
	RetryAfterSeconds int    `json:"retry_after_seconds,omitempty"`
}

// WriteJSON encodes v as indented JSON. Unlike json.NewEncoder().Encode
// fire-and-forget, it reports the encode/write error so handlers can log
// it (by then the status line is gone — logging is all that is left).
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteError emits a structured JSON error response. A *ShedError also
// sets the Retry-After header. logf (nil = silent) receives a one-line
// record of the failure, and of the encode error if writing the body
// itself failed.
func WriteError(w http.ResponseWriter, logf func(format string, args ...any), reqID string, status int, err error) {
	resp := ErrorResponse{Error: err.Error(), Status: status, RequestID: reqID}
	var shed *ShedError
	if errors.As(err, &shed) {
		resp.RetryAfterSeconds = shed.RetryAfterSeconds()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", resp.RetryAfterSeconds))
	}
	if logf != nil {
		logf("req %s: %d %v", reqID, status, err)
	}
	if werr := WriteJSON(w, status, resp); werr != nil && logf != nil {
		logf("req %s: writing error response: %v", reqID, werr)
	}
}

// Health is the JSON readiness body cmd/serve answers on /healthz: the
// remaining-capacity view a cluster prober or operator needs (live
// inflight and queue depth against their bounds, whether a persistent run
// cache is attached, uptime). The HTTP status keeps the old plain-probe
// contract — 200 while serving, 503 while draining — so load balancers
// and scripts that only look at the code are unchanged.
type Health struct {
	Status        string  `json:"status"`
	InFlight      int     `json:"inflight"`
	QueueDepth    int     `json:"queue_depth"`
	MaxInFlight   int     `json:"max_inflight"`
	MaxQueue      int     `json:"max_queue"`
	CacheDir      bool    `json:"cache_dir"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// StatusForRunError maps a simulation error to an HTTP status: client
// disconnect (context.Canceled propagated through the request context) to
// 499, an expired per-request deadline to 504, anything else to 500.
func StatusForRunError(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Instrument wraps h with end-to-end latency and status-class accounting
// against m (nil m returns h unchanged).
func Instrument(m *telemetry.ServingMetrics, h http.HandlerFunc) http.HandlerFunc {
	if m == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		h(rec, r)
		m.RequestSeconds.Observe(time.Since(start).Seconds())
		switch {
		case rec.status == StatusClientClosedRequest:
			m.ResponsesClientGone.Inc()
		case rec.status >= 500:
			m.ResponsesServerError.Inc()
		case rec.status >= 400:
			m.ResponsesClientError.Inc()
		default:
			m.ResponsesOK.Inc()
		}
	}
}
