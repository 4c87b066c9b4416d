// Package serving is the production-hardening layer behind cmd/serve: a
// bounded admission controller (semaphore-limited concurrency plus a short
// bounded wait queue, overflow shed fast with 429 semantics), structured
// JSON error responses with request IDs, a deterministic
// chaos/fault-injection hook, and the latency-quantile helper cmd/loadgen
// reports with.
//
// The design mirrors the paper's actuator lesson: the admission semaphore
// is the bounded actuator, the wait queue is the (anti-windup-clamped)
// integrator, and overflow is shed immediately instead of being allowed to
// wind up into unbounded goroutine backlog.
package serving

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// AdmissionConfig bounds the serving layer's concurrency.
type AdmissionConfig struct {
	// MaxInFlight is the number of simulations allowed to execute
	// concurrently; <= 0 uses GOMAXPROCS.
	MaxInFlight int
	// MaxQueue is the number of requests allowed to wait for a slot once
	// all MaxInFlight slots are taken. 0 means no queue: overflow sheds
	// immediately.
	MaxQueue int
	// MaxWait bounds how long a queued request may wait for a slot before
	// it is shed; <= 0 uses 250ms.
	MaxWait time.Duration
}

// withDefaults resolves zero values.
func (c AdmissionConfig) withDefaults() AdmissionConfig {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.MaxWait <= 0 {
		c.MaxWait = 250 * time.Millisecond
	}
	return c
}

// ShedError reports that admission control rejected a request. Handlers
// translate it into 429 Too Many Requests with a Retry-After hint.
type ShedError struct {
	// Reason distinguishes "queue full" (instant shed) from "wait
	// timeout" (the request queued for the full MaxWait bound).
	Reason string
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("overloaded: %s (retry after %s)", e.Reason, e.RetryAfter)
}

// RetryAfterSeconds renders the hint for a Retry-After header (whole
// seconds, minimum 1 — the header does not carry sub-second values).
func (e *ShedError) RetryAfterSeconds() int {
	s := int(math.Ceil(e.RetryAfter.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// Admission is a bounded admission controller: a slot semaphore plus a
// counted wait queue. All methods are safe for concurrent use.
type Admission struct {
	cfg     AdmissionConfig
	slots   chan struct{}
	queued  atomic.Int64
	metrics *telemetry.ServingMetrics // nil = uninstrumented
}

// NewAdmission builds an admission controller. metrics may be nil.
func NewAdmission(cfg AdmissionConfig, metrics *telemetry.ServingMetrics) *Admission {
	cfg = cfg.withDefaults()
	return &Admission{
		cfg:     cfg,
		slots:   make(chan struct{}, cfg.MaxInFlight),
		metrics: metrics,
	}
}

// Config returns the resolved (defaulted) configuration.
func (a *Admission) Config() AdmissionConfig { return a.cfg }

// InFlight returns the number of currently held slots.
func (a *Admission) InFlight() int { return len(a.slots) }

// Queued returns the number of requests currently waiting for a slot.
func (a *Admission) Queued() int { return int(a.queued.Load()) }

// Acquire claims an execution slot, waiting up to MaxWait in the bounded
// queue. On success it returns a release function that MUST be called
// exactly once. On overflow it returns a *ShedError; if ctx is cancelled
// while queued it returns the context error.
func (a *Admission) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot means no queueing and no timer.
	select {
	case a.slots <- struct{}{}:
		a.admitted(0)
		return a.releaseFunc(), nil
	default:
	}

	// Saturated: join the bounded queue, or shed immediately when full.
	// The increment is optimistic — the recheck keeps the bound exact
	// under races (a loser backs out before waiting).
	if q := a.queued.Add(1); int(q) > a.cfg.MaxQueue {
		a.queued.Add(-1)
		a.shed(a.metricsShedQueueFull())
		return nil, &ShedError{Reason: "queue full", RetryAfter: a.cfg.MaxWait}
	}
	a.setQueueGauge()
	defer func() {
		a.queued.Add(-1)
		a.setQueueGauge()
	}()

	start := time.Now()
	timer := time.NewTimer(a.cfg.MaxWait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		a.admitted(time.Since(start))
		return a.releaseFunc(), nil
	case <-timer.C:
		a.shed(a.metricsShedWaitTimeout())
		return nil, &ShedError{Reason: "wait timeout", RetryAfter: a.cfg.MaxWait}
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// releaseFunc returns the idempotent slot-release closure.
func (a *Admission) releaseFunc() func() {
	var done atomic.Bool
	return func() {
		if !done.CompareAndSwap(false, true) {
			return
		}
		<-a.slots
		if a.metrics != nil {
			a.metrics.InFlight.Set(float64(len(a.slots)))
		}
	}
}

func (a *Admission) admitted(wait time.Duration) {
	if a.metrics == nil {
		return
	}
	a.metrics.Admitted.Inc()
	a.metrics.InFlight.Set(float64(len(a.slots)))
	a.metrics.AdmissionWait.Observe(wait.Seconds())
}

func (a *Admission) metricsShedQueueFull() *telemetry.Counter {
	if a.metrics == nil {
		return nil
	}
	return a.metrics.ShedQueueFull
}

func (a *Admission) metricsShedWaitTimeout() *telemetry.Counter {
	if a.metrics == nil {
		return nil
	}
	return a.metrics.ShedWaitTimeout
}

func (a *Admission) shed(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (a *Admission) setQueueGauge() {
	if a.metrics != nil {
		a.metrics.QueueDepth.Set(float64(a.queued.Load()))
	}
}
