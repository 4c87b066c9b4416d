package sensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// avg returns series i's current average (the blocks in order, then the
// chip), with Step's divisor; 0 before the first Step.
func (p *Proxy) avg(i int) float64 {
	n := p.head
	if p.full {
		n = p.window
	}
	if n == 0 {
		return 0
	}
	return p.sums[i] / float64(n)
}

// scalarProxy feeds one stream into both series of a one-block proxy
// whose triggers never fire, the shape of a plain moving average.
type scalarProxy struct{ p *Proxy }

func newScalarProxy(window int) scalarProxy {
	return scalarProxy{NewProxy([]float64{1}, window, 0, math.Inf(1), math.Inf(1))}
}

// add pushes x into both series and returns the block series' average,
// failing the test if the chip series disagrees.
func (s scalarProxy) add(t *testing.T, x float64) float64 {
	t.Helper()
	s.p.Step([]float64{x}, x)
	return s.avgBoth(t)
}

func (s scalarProxy) avgBoth(t *testing.T) float64 {
	t.Helper()
	a, c := s.p.avg(0), s.p.avg(1)
	if math.Float64bits(a) != math.Float64bits(c) {
		t.Fatalf("block average %v != chip average %v on the same stream", a, c)
	}
	return a
}

func TestProxyWarmupAndSteady(t *testing.T) {
	b := newScalarProxy(4)
	if got := b.avgBoth(t); got != 0 {
		t.Fatalf("empty avg = %v, want 0", got)
	}
	if got := b.add(t, 8); got != 8 {
		t.Errorf("first avg = %v, want 8", got)
	}
	b.add(t, 0)
	if got := b.avgBoth(t); got != 4 {
		t.Errorf("partial avg = %v, want 4", got)
	}
	b.add(t, 0)
	b.add(t, 0)
	// Window now holds {8,0,0,0}; pushing 4 evicts the 8.
	if got := b.add(t, 4); got != 1 {
		t.Errorf("avg = %v, want 1", got)
	}
}

func TestNewProxyPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewProxy with window 0 did not panic")
		}
	}()
	newScalarProxy(0)
}

// Property: a proxy's average always matches a direct recomputation over
// the last window of samples.
func TestProxyMatchesDirectAverage(t *testing.T) {
	f := func(raw []float64, w8 uint8) bool {
		w := int(w8%16) + 1
		b := newScalarProxy(w)
		samples := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			samples = append(samples, x)
			b.add(t, x)
		}
		n := len(samples)
		if n == 0 {
			return b.avgBoth(t) == 0
		}
		lo := max(n-w, 0)
		var sum float64
		for _, x := range samples[lo:] {
			sum += x
		}
		want := sum / float64(n-lo)
		return math.Abs(b.avgBoth(t)-want) <= 1e-6*(1+math.Abs(want))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestProxyRecoversFromCatastrophicAbsorption pins the incremental-sum
// drift fix: a large transient passing through the window used to destroy
// the running sum permanently. With sum ~ 1e17, adding 1.0 is fully
// absorbed (the ulp at 1e17 is 16), so when the spike was evicted the
// incremental update `sum += 1 - spike` left ~1 instead of the true 8 —
// and without the recompute-on-wrap the average stayed wrong forever.
func TestProxyRecoversFromCatastrophicAbsorption(t *testing.T) {
	const w = 8
	const spike = 1e17
	b := newScalarProxy(w)
	feed := func(xs ...float64) {
		for _, x := range xs {
			b.add(t, x)
		}
	}
	ones := make([]float64, w)
	for i := range ones {
		ones[i] = 1
	}
	feed(ones...)       // steady window of 1s
	feed(spike)         // transient enters
	feed(ones[:w-1]...) // window wraps with the spike inside
	feed(ones...)       // transient evicted, another full wrap
	if got := b.avgBoth(t); got != 1 {
		t.Fatalf("average after transient passed = %v, want exactly 1", got)
	}

	// And against a naive O(n) recomputation at every step of a stream
	// that keeps pushing large/small magnitude flips through the window.
	b = newScalarProxy(w)
	var hist []float64
	for i := 0; i < 10*w; i++ {
		x := 1.0
		if i%11 == 0 {
			x = 1e15
		}
		hist = append(hist, x)
		got := b.add(t, x)
		lo := max(len(hist)-w, 0)
		var sum float64
		for _, v := range hist[lo:] {
			sum += v
		}
		want := sum / float64(len(hist)-lo)
		if math.Abs(got-want) > 1e-6*math.Abs(want) {
			t.Fatalf("step %d: incremental avg %v diverged from naive %v", i, got, want)
		}
	}
}

// refBoxcar, refStructProxy and refChipProxy are the separate-buffer
// boxcar proxies Proxy replaced, kept verbatim as its reference: one
// zeroed buffer per series, read at the evicted slot on every sample.
type refBoxcar struct {
	buf  []float64
	head int
	full bool
	sum  float64
}

func newRefBoxcar(window int) *refBoxcar { return &refBoxcar{buf: make([]float64, window)} }

func (b *refBoxcar) Add(x float64) float64 {
	b.sum += x - b.buf[b.head]
	b.buf[b.head] = x
	b.head++
	if b.head == len(b.buf) {
		b.head = 0
		b.full = true
		sum := 0.0
		for _, v := range b.buf {
			sum += v
		}
		b.sum = sum
	}
	return b.Avg()
}

func (b *refBoxcar) Avg() float64 {
	n := len(b.buf)
	if !b.full {
		n = b.head
		if n == 0 {
			return 0
		}
	}
	return b.sum / float64(n)
}

type refStructProxy struct {
	boxcars   []*refBoxcar
	r         []float64
	sink      float64
	threshold float64
}

func newRefStructProxy(rs []float64, window int, sink, threshold float64) *refStructProxy {
	p := &refStructProxy{r: rs, sink: sink, threshold: threshold}
	for range rs {
		p.boxcars = append(p.boxcars, newRefBoxcar(window))
	}
	return p
}

func (p *refStructProxy) Step(power []float64) bool {
	hot := false
	for i, bc := range p.boxcars {
		avg := bc.Add(power[i])
		if p.sink+avg*p.r[i] > p.threshold {
			hot = true
		}
	}
	return hot
}

type refChipProxy struct {
	boxcar    *refBoxcar
	threshold float64
}

func (p *refChipProxy) Step(chipPower float64) bool {
	return p.boxcar.Add(chipPower) > p.threshold
}

// proxyStream is a randomized per-cycle power stream around the trigger
// thresholds, with one 1e12 W transient on a random series and cycle.
func proxyStream(seed uint64, nblk, cycles int) (power [][]float64, chip []float64) {
	rng := rand.New(rand.NewPCG(seed, 7))
	spikeAt, spikeOn := rng.IntN(cycles), rng.IntN(nblk+1)
	power = make([][]float64, cycles)
	chip = make([]float64, cycles)
	for c := range power {
		row := make([]float64, nblk)
		total := 0.0
		for i := range row {
			row[i] = 12 * rng.Float64()
			total += row[i]
		}
		chip[c] = total + 10*rng.Float64()
		if c == spikeAt {
			if spikeOn == nblk {
				chip[c] = 1e12
			} else {
				row[spikeOn] = 1e12
			}
		}
		power[c] = row
	}
	return power, chip
}

// checkProxyMatchesReference steps p and the reference proxies through
// the same stream and requires bit-identical averages and identical
// triggers on every cycle.
func checkProxyMatchesReference(t *testing.T, p *Proxy, rs []float64, window int, power [][]float64, chip []float64) {
	t.Helper()
	const sink, threshold, chipW = 100, 111.3, 47
	rsP := newRefStructProxy(rs, window, sink, threshold)
	rcP := &refChipProxy{boxcar: newRefBoxcar(window), threshold: chipW}
	for c := range power {
		hotS, hotC := p.Step(power[c], chip[c])
		wantS, wantC := rsP.Step(power[c]), rcP.Step(chip[c])
		if hotS != wantS || hotC != wantC {
			t.Fatalf("cycle %d: triggers (%v, %v), reference (%v, %v)", c, hotS, hotC, wantS, wantC)
		}
		for i, bc := range rsP.boxcars {
			if got, want := p.avg(i), bc.Avg(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cycle %d block %d: average %v, reference %v", c, i, got, want)
			}
		}
		if got, want := p.avg(len(rs)), rcP.boxcar.Avg(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cycle %d chip: average %v, reference %v", c, got, want)
		}
	}
}

// proxyCases covers windows {1, 2, 7, 10 000} with streams shorter than
// the window, exactly one window long, and spanning several wraps.
func proxyCases(f func(t *testing.T, window, cycles int, seed uint64)) func(*testing.T) {
	return func(t *testing.T) {
		for _, w := range []int{1, 2, 7, 10_000} {
			lens := []int{w, 3*w + w/2 + 1}
			if w > 1 {
				lens = append([]int{w - 1}, lens...)
			}
			for _, n := range lens {
				seed := uint64(w*1_000_003 + n)
				t.Run(fmt.Sprintf("w%d/n%d", w, n), func(t *testing.T) { f(t, w, n, seed) })
			}
		}
	}
}

var proxyRs = []float64{0.9, 1.1, 1.4, 0.8, 1.9, 1.2, 1.0}

func TestProxyMatchesReference(t *testing.T) {
	proxyCases(func(t *testing.T, w, n int, seed uint64) {
		power, chip := proxyStream(seed, len(proxyRs), n)
		p := NewProxy(proxyRs, w, 100, 111.3, 47)
		defer p.Release()
		checkProxyMatchesReference(t, p, proxyRs, w, power, chip)
	})(t)
}

// TestProxyPoisonedRingMatchesReference fills the ring with NaN before
// the run, as a ring released by an earlier run may hold garbage: Step
// must never read a slot it has not written in this run.
func TestProxyPoisonedRingMatchesReference(t *testing.T) {
	proxyCases(func(t *testing.T, w, n int, seed uint64) {
		power, chip := proxyStream(seed, len(proxyRs), n)
		p := NewProxy(proxyRs, w, 100, 111.3, 47)
		defer p.Release()
		for i := range *p.ring {
			(*p.ring)[i] = math.NaN()
		}
		checkProxyMatchesReference(t, p, proxyRs, w, power, chip)
	})(t)
}

// TestProxyReleasedRingIsReusable runs two proxies of the same shape back
// to back through the pool. The pool may drop the ring (it does at random
// under the race detector), so only the results are checked, not reuse.
func TestProxyReleasedRingIsReusable(t *testing.T) {
	const w = 7
	for run := range 3 {
		power, chip := proxyStream(uint64(run), len(proxyRs), 3*w+2)
		p := NewProxy(proxyRs, w, 100, 111.3, 47)
		checkProxyMatchesReference(t, p, proxyRs, w, power, chip)
		p.Release()
		p.Release() // a second Release is a no-op
		if p.ring != nil {
			t.Fatal("Release kept the ring")
		}
	}
}
