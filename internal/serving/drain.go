package serving

// Drainer gives background batch goroutines a managed lifecycle: they run
// under a cancellable context and register in a WaitGroup, so shutdown can
// cancel-then-await them instead of letting them outlive the process'
// graceful-exit window.

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrDraining is returned by Go once shutdown has begun.
var ErrDraining = errors.New("serving: shutting down, not accepting new work")

// Drainer tracks background goroutines for graceful shutdown.
type Drainer struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu      sync.Mutex
	closing bool
}

// NewDrainer derives the shared background context from parent.
func NewDrainer(parent context.Context) *Drainer {
	ctx, cancel := context.WithCancel(parent)
	return &Drainer{ctx: ctx, cancel: cancel}
}

// Go runs f on a tracked goroutine. It refuses with ErrDraining once
// Shutdown has begun, so no work can slip in behind the drain.
func (d *Drainer) Go(f func(ctx context.Context)) error {
	d.mu.Lock()
	if d.closing {
		d.mu.Unlock()
		return ErrDraining
	}
	d.wg.Add(1)
	d.mu.Unlock()
	go func() {
		defer d.wg.Done()
		f(d.ctx)
	}()
	return nil
}

// Draining reports whether Shutdown has begun.
func (d *Drainer) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closing
}

// Shutdown cancels the background context and waits up to timeout for all
// tracked goroutines to finish. It reports whether the drain completed
// (true) or timed out with work still running (false). Subsequent calls
// just wait again.
func (d *Drainer) Shutdown(timeout time.Duration) bool {
	d.mu.Lock()
	d.closing = true
	d.mu.Unlock()
	d.cancel()

	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	if timeout <= 0 {
		<-done
		return true
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}
