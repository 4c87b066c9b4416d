// Package runner is the reusable parallel experiment engine behind every
// batch in the repository: table regeneration, policy sweeps, proxy
// studies and the benchmark harness all funnel their simulations through
// it. It replaces the previous ad-hoc goroutine fan-outs with one engine
// that provides
//
//   - a bounded worker pool (default GOMAXPROCS workers),
//   - context cancellation with first-error abort: the first failing job
//     cancels the batch context so queued jobs never start and running
//     simulations stop at their next cancellation check,
//   - per-job panic recovery, converting a crashed simulation into an
//     error carrying the panic value and stack instead of killing the
//     whole process,
//   - per-job wall-time and throughput metrics (cycles per second when
//     the job result reports its cycle count), and
//   - an optional progress callback for long batches.
//
// Results are always returned in job order regardless of completion
// order, so table rows stay aligned with their specs.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Job is one unit of work. The context is the batch context: jobs that
// can stop early (e.g. sim.RunContext) should honor its cancellation.
type Job[R any] func(ctx context.Context) (R, error)

// CycleCounter is implemented by job results that can report how many
// simulation cycles they covered; the runner uses it to derive a
// cycles-per-second throughput metric. *sim.Result implements it.
type CycleCounter interface {
	CycleCount() uint64
}

// Metrics records one job's execution cost.
type Metrics struct {
	// Wall is the job's wall-clock execution time.
	Wall time.Duration
	// Cycles is the simulated cycle count (0 if the result does not
	// implement CycleCounter).
	Cycles uint64
	// CyclesPerSec is Cycles divided by Wall (0 when unknown).
	CyclesPerSec float64
}

// Outcome is one job's result with its metrics. Err is non-nil when the
// job failed, panicked (a *PanicError), or was cancelled before running.
type Outcome[R any] struct {
	Value   R
	Err     error
	Metrics Metrics
}

// PanicError wraps a panic recovered from a job.
type PanicError struct {
	// Job is the index of the panicking job.
	Job int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the panic site.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: job %d panicked: %v", e.Job, e.Value)
}

// Progress is a snapshot handed to the progress callback after every job
// completes.
type Progress struct {
	// Done is the number of finished jobs (including failures).
	Done int
	// Total is the batch size.
	Total int
	// Failed is the number of finished jobs that returned an error.
	Failed int
	// Elapsed is the wall time since the batch started.
	Elapsed time.Duration
}

// Options tunes a batch.
type Options struct {
	// Workers bounds concurrency; <= 0 uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is invoked after every job completion.
	// It is called from worker goroutines but never concurrently.
	Progress func(Progress)
	// Metrics, when non-nil, streams batch lifecycle telemetry: started/
	// completed/failed job counters, per-job wall time, and the live
	// unclaimed-queue depth.
	Metrics *telemetry.RunnerMetrics
}

// Run executes jobs with bounded parallelism and returns their outcomes
// in job order. The returned error is the first job error encountered
// (in completion order); once it occurs the batch context is cancelled
// so unstarted jobs are skipped (their Outcome.Err is the cancellation
// cause) and cancellation-aware jobs stop early. Run itself never
// panics because of a job panic.
func Run[R any](ctx context.Context, opts Options, jobs []Job[R]) ([]Outcome[R], error) {
	outs := make([]Outcome[R], len(jobs))
	if len(jobs) == 0 {
		return outs, ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	bctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var (
		firstErr error
		errOnce  sync.Once
		next     atomic.Int64
		done     atomic.Int64
		failed   atomic.Int64
		progMu   sync.Mutex
		start    = time.Now()
		wg       sync.WaitGroup
	)
	abort := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel(err)
		})
	}
	finish := func(failedJob bool) {
		d := done.Add(1)
		f := failed.Load()
		if failedJob {
			f = failed.Add(1)
		}
		if opts.Progress != nil {
			progMu.Lock()
			opts.Progress(Progress{
				Done:    int(d),
				Total:   len(jobs),
				Failed:  int(f),
				Elapsed: time.Since(start),
			})
			progMu.Unlock()
		}
	}

	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				err := &PanicError{Job: i, Value: r, Stack: debug.Stack()}
				outs[i].Err = err
				if opts.Metrics != nil {
					opts.Metrics.RunsCompleted.Inc()
					opts.Metrics.RunsFailed.Inc()
				}
				abort(err)
				finish(true)
			}
		}()
		if opts.Metrics != nil {
			opts.Metrics.RunsStarted.Inc()
		}
		jobStart := time.Now()
		v, err := jobs[i](bctx)
		outs[i].Value = v
		outs[i].Err = err
		outs[i].Metrics.Wall = time.Since(jobStart)
		if opts.Metrics != nil {
			opts.Metrics.RunsCompleted.Inc()
			if err != nil {
				opts.Metrics.RunsFailed.Inc()
			}
			opts.Metrics.RunSeconds.Observe(outs[i].Metrics.Wall.Seconds())
		}
		if cc, ok := any(v).(CycleCounter); ok && err == nil {
			outs[i].Metrics.Cycles = cc.CycleCount()
			if s := outs[i].Metrics.Wall.Seconds(); s > 0 {
				outs[i].Metrics.CyclesPerSec = float64(outs[i].Metrics.Cycles) / s
			}
		}
		if err != nil {
			abort(err)
		}
		finish(err != nil)
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if opts.Metrics != nil {
					if left := len(jobs) - i - 1; left >= 0 {
						opts.Metrics.QueueDepth.Set(float64(left))
					}
				}
				if err := bctx.Err(); err != nil {
					// Batch aborted: mark the job skipped without
					// running it.
					outs[i].Err = context.Cause(bctx)
					if opts.Metrics != nil {
						opts.Metrics.RunsFailed.Inc()
					}
					finish(true)
					continue
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return outs, firstErr
	}
	if err := ctx.Err(); err != nil {
		return outs, err
	}
	return outs, nil
}

// Map runs f over items with bounded parallelism and returns the results
// in item order. It aborts on the first error, like Run.
func Map[T, R any](ctx context.Context, opts Options, items []T, f func(ctx context.Context, item T) (R, error)) ([]R, error) {
	jobs := make([]Job[R], len(items))
	for i := range items {
		item := items[i]
		jobs[i] = func(ctx context.Context) (R, error) { return f(ctx, item) }
	}
	outs, err := Run(ctx, opts, jobs)
	if err != nil {
		return nil, err
	}
	return Values(outs), nil
}

// Values extracts the job results from outcomes, in order.
func Values[R any](outs []Outcome[R]) []R {
	vs := make([]R, len(outs))
	for i := range outs {
		vs[i] = outs[i].Value
	}
	return vs
}
