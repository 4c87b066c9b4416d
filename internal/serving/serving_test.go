package serving

// Tests for the chaos source and the quantile helper.

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestChaosProbabilities(t *testing.T) {
	// p=0 never fires, p=1 always fires; a nil source is inert.
	never := NewChaos(1, 0, 0, time.Millisecond)
	always := NewChaos(1, 1, 1, time.Microsecond)
	for i := 0; i < 100; i++ {
		if err := never.DiskFault("read"); err != nil {
			t.Fatalf("p=0 injected a fault: %v", err)
		}
		if err := always.DiskFault("read"); err == nil {
			t.Fatal("p=1 did not inject a fault")
		}
	}
	var nilChaos *Chaos
	if err := nilChaos.DiskFault("read"); err != nil {
		t.Fatalf("nil chaos injected a fault: %v", err)
	}
	if err := nilChaos.MaybeDelay(context.Background()); err != nil {
		t.Fatalf("nil chaos delayed: %v", err)
	}
}

func TestChaosSeedReproducible(t *testing.T) {
	a := NewChaos(42, 0.5, 0, 0)
	b := NewChaos(42, 0.5, 0, 0)
	for i := 0; i < 200; i++ {
		ea, eb := a.DiskFault("op"), b.DiskFault("op")
		if (ea == nil) != (eb == nil) {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestChaosDelayHonorsCancellation(t *testing.T) {
	c := NewChaos(7, 0, 1, 10*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.MaybeDelay(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("delay did not abort on cancellation")
	}
}

func TestQuantiles(t *testing.T) {
	samples := make([]time.Duration, 100)
	for i := range samples {
		samples[i] = time.Duration(i+1) * time.Millisecond // 1ms..100ms
	}
	qs := Quantiles(samples, 0, 0.5, 0.95, 0.99, 1)
	want := []time.Duration{
		1 * time.Millisecond,
		50500 * time.Microsecond, // interpolated median of 1..100
		95050 * time.Microsecond,
		99010 * time.Microsecond,
		100 * time.Millisecond,
	}
	for i := range want {
		diff := qs[i] - want[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > 100*time.Microsecond {
			t.Errorf("quantile %d = %v, want ~%v", i, qs[i], want[i])
		}
	}
	if got := Quantiles(nil, 0.5, 1); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Errorf("empty quantiles = %v, want [0 0]", got)
	}
	// Input order must not matter and the input must not be mutated.
	shuffled := []time.Duration{30, 10, 20}
	if got := Quantiles(shuffled, 0, 1); got[0] != 10 || got[1] != 30 {
		t.Errorf("min, max of shuffled = %v, want [10 30]", got)
	}
	if shuffled[0] != 30 || shuffled[1] != 10 || shuffled[2] != 20 {
		t.Error("Quantiles mutated its input")
	}
}
