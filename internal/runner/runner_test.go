package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// counted is a job result that reports a cycle count.
type counted struct{ cycles uint64 }

func (c counted) CycleCount() uint64 { return c.cycles }

func TestRunOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 0} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 64
			jobs := make([]Job[int], n)
			for i := 0; i < n; i++ {
				i := i
				jobs[i] = func(context.Context) (int, error) {
					// Vary completion order: later jobs finish first.
					time.Sleep(time.Duration(n-i) * time.Microsecond)
					return i * i, nil
				}
			}
			outs, err := Run(context.Background(), Options{Workers: workers}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != n {
				t.Fatalf("got %d outcomes, want %d", len(outs), n)
			}
			for i, o := range outs {
				if o.Err != nil {
					t.Fatalf("job %d: unexpected error %v", i, o.Err)
				}
				if o.Value != i*i {
					t.Errorf("job %d: value %d, want %d", i, o.Value, i*i)
				}
				if o.Metrics.Wall <= 0 {
					t.Errorf("job %d: no wall time recorded", i)
				}
			}
		})
	}
}

func TestRunFirstErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	const n = 100
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			started.Add(1)
			if i == 3 {
				return 0, boom
			}
			// Give the failing job time to abort the batch; honor
			// cancellation like a well-behaved simulation.
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(20 * time.Millisecond):
				return i, nil
			}
		}
	}
	outs, err := Run(context.Background(), Options{Workers: 2}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("batch error = %v, want %v", err, boom)
	}
	if outs[3].Err == nil || !errors.Is(outs[3].Err, boom) {
		t.Errorf("failing job outcome error = %v, want %v", outs[3].Err, boom)
	}
	// Most jobs must have been skipped, not run: with 2 workers and an
	// abort on the 4th job, nowhere near all 100 should start.
	if s := started.Load(); s > 20 {
		t.Errorf("%d jobs started after first-error abort; want early stop", s)
	}
	// Skipped jobs carry the abort cause.
	var skipped int
	for _, o := range outs {
		if o.Err != nil && errors.Is(o.Err, boom) {
			skipped++
		}
	}
	if skipped < n/2 {
		t.Errorf("only %d outcomes carry the abort cause", skipped)
	}
}

func TestRunPanicBecomesError(t *testing.T) {
	jobs := []Job[string]{
		func(context.Context) (string, error) { return "ok", nil },
		func(context.Context) (string, error) { panic("kaboom") },
	}
	outs, err := Run(context.Background(), Options{Workers: 1}, jobs)
	if err == nil {
		t.Fatal("batch error is nil despite panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("batch error %T is not a *PanicError", err)
	}
	if pe.Job != 1 || pe.Value != "kaboom" {
		t.Errorf("PanicError = {Job:%d Value:%v}, want {1 kaboom}", pe.Job, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError has no stack")
	}
	if outs[0].Err != nil || outs[0].Value != "ok" {
		t.Errorf("healthy job outcome corrupted: %+v", outs[0])
	}
	if !errors.As(outs[1].Err, &pe) {
		t.Errorf("panicking job outcome error = %v, want *PanicError", outs[1].Err)
	}
}

func TestRunCancellationMidBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	const n = 32
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = func(ctx context.Context) (int, error) {
			if i == 0 {
				close(release) // first job signals the canceller
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Second):
				return i, nil
			}
		}
	}
	go func() {
		<-release
		cancel()
	}()
	outs, err := Run(ctx, Options{Workers: 2}, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error = %v, want context.Canceled", err)
	}
	var finished int
	for _, o := range outs {
		if o.Err == nil {
			finished++
		}
	}
	if finished == n {
		t.Error("cancellation did not stop any job")
	}
}

func TestRunMetricsAndProgress(t *testing.T) {
	const n = 10
	jobs := make([]Job[counted], n)
	for i := 0; i < n; i++ {
		jobs[i] = func(context.Context) (counted, error) {
			time.Sleep(time.Millisecond)
			return counted{cycles: 1000}, nil
		}
	}
	var calls atomic.Int64
	var lastDone atomic.Int64
	outs, err := Run(context.Background(), Options{
		Workers: 3,
		Progress: func(p Progress) {
			calls.Add(1)
			if p.Total != n {
				t.Errorf("progress total = %d, want %d", p.Total, n)
			}
			lastDone.Store(int64(p.Done))
		},
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != n {
		t.Errorf("progress callback fired %d times, want %d", calls.Load(), n)
	}
	if lastDone.Load() != n {
		t.Errorf("final progress done = %d, want %d", lastDone.Load(), n)
	}
	for i, o := range outs {
		if o.Metrics.Cycles != 1000 {
			t.Errorf("job %d: cycles = %d, want 1000", i, o.Metrics.Cycles)
		}
		if o.Metrics.CyclesPerSec <= 0 {
			t.Errorf("job %d: no throughput metric", i)
		}
		if o.Metrics.Wall < time.Millisecond {
			t.Errorf("job %d: wall %v below its sleep", i, o.Metrics.Wall)
		}
	}
}

func TestMap(t *testing.T) {
	items := []int{1, 2, 3, 4, 5}
	got, err := Map(context.Background(), Options{}, items,
		func(_ context.Context, x int) (int, error) { return x * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != items[i]*10 {
			t.Errorf("result[%d] = %d, want %d", i, v, items[i]*10)
		}
	}
	boom := errors.New("boom")
	if _, err := Map(context.Background(), Options{}, items,
		func(_ context.Context, x int) (int, error) {
			if x == 3 {
				return 0, boom
			}
			return x, nil
		}); !errors.Is(err, boom) {
		t.Errorf("Map error = %v, want %v", err, boom)
	}
}

func TestRunEmptyAndCancelledUpfront(t *testing.T) {
	outs, err := Run(context.Background(), Options{}, []Job[int]{})
	if err != nil || len(outs) != 0 {
		t.Errorf("empty batch: outs=%v err=%v", outs, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	outs, err = Run(ctx, Options{}, []Job[int]{
		func(context.Context) (int, error) { ran.Store(true); return 1, nil },
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled batch error = %v", err)
	}
	if ran.Load() {
		t.Error("job ran despite pre-cancelled context")
	}
	if outs[0].Err == nil {
		t.Error("skipped job has nil error")
	}
}

// TestRunStress hammers the pool from many shapes; run with -race.
func TestRunStress(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 32} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			const n = 200
			var sum atomic.Int64
			jobs := make([]Job[int], n)
			for i := 0; i < n; i++ {
				i := i
				jobs[i] = func(context.Context) (int, error) {
					sum.Add(int64(i))
					return i, nil
				}
			}
			var progress atomic.Int64
			outs, err := Run(context.Background(), Options{
				Workers:  workers,
				Progress: func(Progress) { progress.Add(1) },
			}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			want := int64(n * (n - 1) / 2)
			if sum.Load() != want {
				t.Errorf("side-effect sum = %d, want %d", sum.Load(), want)
			}
			if progress.Load() != n {
				t.Errorf("progress fired %d times, want %d", progress.Load(), n)
			}
			for i, o := range outs {
				if o.Value != i {
					t.Fatalf("out of order: outs[%d] = %d", i, o.Value)
				}
			}
		})
	}
}
