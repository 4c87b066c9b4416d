package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
)

func sampleFixture(i int) Sample {
	return Sample{
		Run:         "gcc/PI",
		Cycle:       uint64(1000 * (i + 1)),
		WallSeconds: float64(i) * 667e-9,
		HotTemp:     110.0 + float64(i)*0.125,
		Duty:        1 - float64(i%8)/8,
		FreqFactor:  1,
		ChipPower:   55.5,
		PTerm:       0.25,
		ITerm:       0.5,
		DTerm:       -0.0625,
		Saturated:   i%2 == 0,
		Escalations: uint64(i / 3),
		BlockTemps:  []float64{100.5, 110.25, 108, 111.3125},
	}
}

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, 4, 8)
	want := make([]Sample, 20) // forces two ring flushes plus a partial
	for i := range want {
		want[i] = sampleFixture(i)
		rec.Record(&want[i])
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d samples, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.Run != w.Run || g.Cycle != w.Cycle || g.Saturated != w.Saturated ||
			g.Escalations != w.Escalations {
			t.Fatalf("sample %d mismatch: got %+v want %+v", i, g, w)
		}
		for _, pair := range [][2]float64{
			{g.WallSeconds, w.WallSeconds}, {g.HotTemp, w.HotTemp},
			{g.Duty, w.Duty}, {g.FreqFactor, w.FreqFactor},
			{g.ChipPower, w.ChipPower}, {g.PTerm, w.PTerm},
			{g.ITerm, w.ITerm}, {g.DTerm, w.DTerm},
		} {
			if pair[0] != pair[1] {
				t.Fatalf("sample %d float mismatch: got %v want %v", i, pair[0], pair[1])
			}
		}
		if len(g.BlockTemps) != len(w.BlockTemps) {
			t.Fatalf("sample %d blocks = %v", i, g.BlockTemps)
		}
		for j := range w.BlockTemps {
			if g.BlockTemps[j] != w.BlockTemps[j] {
				t.Fatalf("sample %d block %d: %v != %v", i, j, g.BlockTemps[j], w.BlockTemps[j])
			}
		}
	}
}

func TestTraceLinesAreValidJSON(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, 2, 4)
	s := sampleFixture(0)
	s.Run = `weird "label"\with escapes` + "\n\tend"
	s.HotTemp = math.NaN() // must not corrupt the stream
	rec.Record(&s)
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
	}
	got, err := DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Run != s.Run {
		t.Fatalf("escaped run label round-trip: %q != %q", got[0].Run, s.Run)
	}
	if got[0].HotTemp != 0 {
		t.Fatalf("NaN should encode as 0, got %v", got[0].HotTemp)
	}
}

func TestRecorderEmptyRunLabelOmitted(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf, 1, 1)
	s := sampleFixture(0)
	s.Run = ""
	rec.Record(&s)
	if strings.Contains(buf.String(), `"run"`) {
		t.Fatalf("empty run label not omitted: %s", buf.String())
	}
}

// errWriter fails after the first write to exercise error latching.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestRecorderLatchesFirstWriteError(t *testing.T) {
	rec := NewRecorder(&errWriter{}, 1, 2)
	s := sampleFixture(0)
	for i := 0; i < 6; i++ {
		rec.Record(&s)
	}
	if err := rec.Flush(); err != io.ErrClosedPipe {
		t.Fatalf("Flush err = %v, want ErrClosedPipe", err)
	}
	if rec.err != io.ErrClosedPipe {
		t.Fatal("Err not latched")
	}
}

func TestDecodeTraceRejectsGarbage(t *testing.T) {
	if _, err := DecodeTrace(strings.NewReader("{\"cycle\":1}\nnot json\n")); err == nil {
		t.Fatal("garbage line did not error")
	}
}

// TestZeroAllocRecorder is part of the allocation gate: steady-state
// Record/flush cycles must not allocate (ring slots and the encode buffer
// are pre-sized).
func TestZeroAllocRecorder(t *testing.T) {
	rec := NewRecorder(io.Discard, 13, 32)
	s := sampleFixture(3)
	s.BlockTemps = make([]float64, 13)
	for i := range s.BlockTemps {
		s.BlockTemps[i] = 100 + float64(i)*1.0625
	}
	// Warm up: first flush settles buffer sizing.
	for i := 0; i < 100; i++ {
		rec.Record(&s)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			s.Cycle++
			rec.Record(&s)
		}
	})
	if allocs > 0 {
		t.Fatalf("recorder hot path allocates %.2f per run; want 0", allocs)
	}
}
