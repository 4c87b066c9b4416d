package cluster

// The dispatcher is the coordinator's reliability layer: it routes one
// run to a worker (route.go), bounds per-worker concurrency with slot
// semaphores so the fleet's own admission controllers are not tripped by
// the coordinator's fan-out, and recovers from failures:
//
//   - transport errors, 5xx and 429 responses are retried a bounded
//     number of times with exponential backoff plus jitter;
//   - a retry excludes the failed worker, so a downed worker's
//     outstanding runs requeue onto survivors immediately (request
//     failures also feed the pool's mark-down accounting, so the prober
//     is not the only path to marking a corpse);
//   - optionally, a straggling request is hedged: after HedgeAfter with
//     no response, the same run is speculatively fired at a second worker
//     (only if that worker has a free slot), the first success wins and
//     the loser is cancelled. A result is delivered exactly once.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/runner"
	"repro/internal/telemetry"
)

// ErrNoHealthyWorkers is returned when every fleet member is marked down.
var ErrNoHealthyWorkers = errors.New("cluster: no healthy workers")

// DispatchConfig tunes the reliability machinery.
type DispatchConfig struct {
	// Retries is the number of re-dispatches after the first attempt
	// fails; < 0 means 0, the default is 3.
	Retries int
	// RetryBase and RetryMax shape the exponential backoff between
	// attempts (defaults 25ms and 1s); each delay is jittered ±50%.
	RetryBase time.Duration
	RetryMax  time.Duration
	// HedgeAfter fires a speculative duplicate at a second worker when
	// the primary has not answered within this delay; 0 disables hedging.
	HedgeAfter time.Duration
	// WorkerInFlight bounds concurrent dispatches per worker (<= 0 means
	// 4). Keep it at or below the workers' own -max-inflight + -queue so
	// batch fan-out does not shed against the fleet's admission control.
	WorkerInFlight int
	// Timeout bounds one attempt's round trip (<= 0 means 120s). It must
	// exceed the workers' -run-timeout or slow runs are retried forever.
	Timeout time.Duration
	// Seed feeds the jitter RNG; the default 1 keeps runs reproducible.
	Seed int64
}

func (c DispatchConfig) withDefaults() DispatchConfig {
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 25 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	if c.WorkerInFlight <= 0 {
		c.WorkerInFlight = 4
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Response is one dispatched request's outcome: the worker's HTTP status
// and body, the worker that answered, and whether a hedge won the race.
type Response struct {
	Status int
	Body   []byte
	Worker *Worker
	Hedged bool
}

// Dispatcher routes and sends runs to the fleet. Safe for concurrent use.
type Dispatcher struct {
	pool    *Pool
	cfg     DispatchConfig
	client  *http.Client
	metrics *telemetry.ClusterMetrics // nil = uninstrumented
	slots   []chan struct{}           // per-worker concurrency bound

	mu  sync.Mutex
	rng *rand.Rand // jitter; guarded by mu
}

// NewDispatcher builds the reliability layer over pool. metrics may be
// nil.
func NewDispatcher(pool *Pool, cfg DispatchConfig, metrics *telemetry.ClusterMetrics) *Dispatcher {
	cfg = cfg.withDefaults()
	d := &Dispatcher{
		pool:    pool,
		cfg:     cfg,
		client:  &http.Client{Timeout: cfg.Timeout},
		metrics: metrics,
		slots:   make([]chan struct{}, len(pool.Workers())),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := range d.slots {
		d.slots[i] = make(chan struct{}, cfg.WorkerInFlight)
	}
	return d
}

// Config returns the resolved (defaulted) configuration.
func (d *Dispatcher) Config() DispatchConfig { return d.cfg }

// retryableStatus reports whether a worker response should be re-tried
// elsewhere: server errors and admission sheds (the worker explicitly
// asked for a retry). 4xx client errors are final — every worker would
// reject them identically.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// Do dispatches pathQuery (e.g. "/run?bench=gcc&policy=PI&insts=50000")
// to the fleet, routing by the run's cache key and applying the full
// reliability stack. Every attempt carries reqID as its X-Request-Id, so
// the worker answers under the caller's ID. It returns the winning worker
// response (which may still carry a non-2xx status if retries were
// exhausted on a retryable one, or immediately for final 4xx statuses) or
// an error when transport failed on every attempt, no worker is healthy,
// or ctx ended.
func (d *Dispatcher) Do(ctx context.Context, key, pathQuery, reqID string) (*Response, error) {
	var prev *Worker
	for attempt := 0; ; attempt++ {
		w, affinity := d.pool.Route(key, prev)
		if w == nil {
			return nil, ErrNoHealthyWorkers
		}
		if err := d.acquire(ctx, w); err != nil {
			return nil, err
		}
		d.noteDispatch(w, affinity, attempt > 0 && w != prev)
		resp, err := d.exchange(ctx, key, w, pathQuery, reqID)
		if err == nil && !retryableStatus(resp.Status) {
			return resp, nil
		}
		if attempt >= d.cfg.Retries {
			if err != nil {
				return nil, fmt.Errorf("cluster: %s failed after %d attempts: %w", pathQuery, attempt+1, err)
			}
			return resp, nil // retryable status, budget spent: pass it through
		}
		d.noteRetry(w)
		prev = w
		if err := d.sleep(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// exchange sends one attempt to w, optionally hedging to a second worker
// after HedgeAfter. Exactly one Response is returned; the losing request
// is cancelled and its slot released by its own goroutine.
func (d *Dispatcher) exchange(ctx context.Context, key string, w *Worker, pathQuery, reqID string) (*Response, error) {
	if d.cfg.HedgeAfter <= 0 {
		resp, err := d.send(ctx, w, pathQuery, reqID)
		d.reportOutcome(ctx, w, resp, err)
		return resp, err
	}

	sctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser once the winner returns

	type outcome struct {
		resp *Response
		err  error
		w    *Worker
	}
	ch := make(chan outcome, 2) // buffered: the loser must never block
	launch := func(target *Worker) {
		go func() {
			resp, err := d.send(sctx, target, pathQuery, reqID)
			d.reportOutcome(sctx, target, resp, err)
			ch <- outcome{resp, err, target}
		}()
	}
	launch(w)

	timer := time.NewTimer(d.cfg.HedgeAfter)
	defer timer.Stop()
	pending, hedged := 1, false
	var last outcome
	for {
		select {
		case out := <-ch:
			pending--
			won := out.err == nil && !retryableStatus(out.resp.Status)
			if won || pending == 0 {
				if won && hedged && out.w != w {
					out.resp.Hedged = true
					if d.metrics != nil {
						d.metrics.HedgeWins.Inc()
					}
				}
				if won || out.err != nil || last.resp == nil {
					return out.resp, out.err
				}
				return last.resp, last.err
			}
			last = out // one failed; wait for the other
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			hw, _ := d.pool.Route(key, w)
			if hw == nil || hw == w || !d.tryAcquire(hw) {
				continue // no spare capacity or nowhere to hedge: skip
			}
			d.noteHedge(hw)
			pending++
			launch(hw)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// send issues one HTTP round trip to w and reads the full body. The
// worker's slot is released here, whatever the outcome.
func (d *Dispatcher) send(ctx context.Context, w *Worker, pathQuery, reqID string) (*Response, error) {
	defer d.release(w)
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.URL+pathQuery, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if d.metrics != nil {
		d.metrics.DispatchSeconds.Observe(time.Since(start).Seconds())
	}
	return &Response{Status: resp.StatusCode, Body: body, Worker: w}, nil
}

// reportOutcome feeds a completed attempt into the pool's health
// accounting. A transport error only counts against the worker when our
// own context is still live — a hedge loser cancelled mid-flight must not
// mark a healthy worker down.
func (d *Dispatcher) reportOutcome(ctx context.Context, w *Worker, resp *Response, err error) {
	switch {
	case err != nil:
		if ctx.Err() == nil {
			d.pool.ReportFailure(w)
		}
	case resp.Status >= 500:
		// The worker answered, so it is alive — but unwell. Count the
		// failure without resetting on the next 200: a flapping worker
		// should still be markable down. 429 is deliberate shedding, not
		// ill health.
		d.pool.ReportFailure(w)
	default:
		d.pool.ReportSuccess(w)
	}
}

// acquire claims one of w's dispatch slots, waiting until one frees or
// ctx ends. Blocking (rather than overflowing to another worker)
// preserves cache affinity: the run waits for its owner.
func (d *Dispatcher) acquire(ctx context.Context, w *Worker) error {
	select {
	case d.slots[w.Index] <- struct{}{}:
		return nil
	default:
	}
	select {
	case d.slots[w.Index] <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// tryAcquire claims a slot only if one is free — hedges are speculative
// and must not queue behind real work.
func (d *Dispatcher) tryAcquire(w *Worker) bool {
	select {
	case d.slots[w.Index] <- struct{}{}:
		return true
	default:
		return false
	}
}

func (d *Dispatcher) release(w *Worker) {
	<-d.slots[w.Index]
	n := w.inflight.Add(-1)
	if w.metrics != nil {
		w.metrics.InFlight.Set(float64(n))
	}
}

// noteDispatch is the per-dispatch bookkeeping: inflight accounting plus
// the dispatched/affinity/requeue counters. It is on the per-run hot path
// and must not allocate (TestZeroAllocRouteAndBookkeeping).
func (d *Dispatcher) noteDispatch(w *Worker, affinity, requeued bool) {
	n := w.inflight.Add(1)
	if w.metrics != nil {
		w.metrics.InFlight.Set(float64(n))
		w.metrics.Dispatched.Inc()
		if requeued {
			w.metrics.Requeued.Inc()
		}
	}
	if d.metrics != nil {
		d.metrics.Dispatched.Inc()
		if affinity {
			d.metrics.AffinityHits.Inc()
		} else {
			d.metrics.AffinityMisses.Inc()
		}
		if requeued {
			d.metrics.Requeued.Inc()
		}
	}
}

func (d *Dispatcher) noteRetry(failed *Worker) {
	if failed.metrics != nil {
		failed.metrics.Retried.Inc()
	}
	if d.metrics != nil {
		d.metrics.Retried.Inc()
	}
}

// noteHedge is the hedged-attempt bookkeeping. Like noteDispatch it must
// pair the slot acquire with an inflight increment — send's deferred
// release decrements unconditionally, so skipping the increment here
// would drift the hedge target's inflight gauge negative and bias
// Pool.Route's least-loaded fallback toward it. Hedges are counted
// separately and deliberately not added to Dispatched.
func (d *Dispatcher) noteHedge(w *Worker) {
	n := w.inflight.Add(1)
	if w.metrics != nil {
		w.metrics.InFlight.Set(float64(n))
		w.metrics.Hedged.Inc()
	}
	if d.metrics != nil {
		d.metrics.Hedges.Inc()
	}
}

// sleep pauses for the attempt's jittered exponential backoff, aborting
// early if ctx ends.
func (d *Dispatcher) sleep(ctx context.Context, attempt int) error {
	base := runner.ExpBackoff(attempt, d.cfg.RetryBase, d.cfg.RetryMax)
	d.mu.Lock()
	jitter := 0.5 + d.rng.Float64() // uniform in [0.5, 1.5)
	d.mu.Unlock()
	delay := time.Duration(float64(base) * jitter)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
