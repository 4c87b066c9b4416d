package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// Sample is one structured trace record: the closed-loop state the paper's
// figures are drawn from — hottest and per-block temperatures, the
// actuator duty and frequency factor, the controller's P/I/D term
// breakdown and saturation flag, and the hierarchy escalation count.
type Sample struct {
	// Run labels the simulation this sample belongs to (benchmark/policy)
	// when several runs share one trace stream.
	Run string `json:"run,omitempty"`
	// Cycle is the simulated cycle the sample was taken at.
	Cycle uint64 `json:"cycle"`
	// WallSeconds is the simulated wall-clock time at the sample.
	WallSeconds float64 `json:"t"`
	// HotTemp is the hottest block temperature (C).
	HotTemp float64 `json:"hot"`
	// Duty is the applied fetch duty in [0,1].
	Duty float64 `json:"duty"`
	// FreqFactor is the current clock ratio (1 = full speed).
	FreqFactor float64 `json:"freq"`
	// ChipPower is the chip-wide power this cycle (W).
	ChipPower float64 `json:"power"`
	// PTerm, ITerm, DTerm are the controller's term contributions at the
	// last controller sample (zero when the policy has no PID).
	PTerm float64 `json:"p"`
	ITerm float64 `json:"i"`
	DTerm float64 `json:"d"`
	// Saturated reports whether the controller hit an actuator bound at
	// its last sample.
	Saturated bool `json:"sat"`
	// Escalations is the cumulative hierarchy escalation count.
	Escalations uint64 `json:"esc"`
	// BlockTemps are the per-block temperatures (C), floorplan order.
	BlockTemps []float64 `json:"blocks"`
}

// maxFloatLen bounds strconv.AppendFloat('g', -1) output ('-', 17 mantissa
// digits, '.', "e-308"); used to pre-size the encode buffer so steady-state
// flushes never grow it.
const maxFloatLen = 26

// Recorder ring-buffers samples and flushes them to an io.Writer as JSONL
// (one JSON object per line). Record is safe for concurrent use from
// parallel simulations and allocation-free in the steady state: every ring
// slot's BlockTemps and the encode buffer are sized at construction, and a
// full ring is encoded into the reused buffer and written in one call.
type Recorder struct {
	mu   sync.Mutex
	w    io.Writer
	ring []Sample
	n    int
	buf  []byte
	err  error
}

// NewRecorder returns a recorder for runs with nblocks thermal blocks,
// flushing every ringSize samples (ringSize <= 0 uses 256).
func NewRecorder(w io.Writer, nblocks, ringSize int) *Recorder {
	if nblocks < 0 {
		panic(fmt.Sprintf("telemetry: negative block count %d", nblocks))
	}
	if ringSize <= 0 {
		ringSize = 256
	}
	r := &Recorder{w: w, ring: make([]Sample, ringSize)}
	for i := range r.ring {
		r.ring[i].BlockTemps = make([]float64, 0, nblocks)
	}
	// Worst-case line: ~13 scalar fields plus one float per block, each
	// bounded by maxFloatLen with punctuation; run labels ride on top of
	// the slack.
	r.buf = make([]byte, 0, ringSize*(16*maxFloatLen+(nblocks+1)*(maxFloatLen+1)))
	return r
}

// Record copies one sample into the ring, flushing when it fills. The
// sample (including its BlockTemps backing array) is not retained.
func (r *Recorder) Record(s *Sample) {
	r.mu.Lock()
	slot := &r.ring[r.n]
	temps := slot.BlockTemps[:0]
	if len(s.BlockTemps) <= cap(temps) {
		temps = temps[:len(s.BlockTemps)]
		copy(temps, s.BlockTemps)
	} else {
		temps = append(temps, s.BlockTemps...) // oversized run: grow once
	}
	*slot = *s
	slot.BlockTemps = temps
	r.n++
	if r.n == len(r.ring) {
		r.flushLocked()
	}
	r.mu.Unlock()
}

// Flush writes any buffered samples and returns the first write error
// encountered over the recorder's lifetime.
func (r *Recorder) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.flushLocked()
	return r.err
}

func (r *Recorder) flushLocked() {
	if r.n == 0 {
		return
	}
	r.buf = r.buf[:0]
	for i := 0; i < r.n; i++ {
		r.buf = appendSample(r.buf, &r.ring[i])
	}
	r.n = 0
	if r.err == nil {
		if _, err := r.w.Write(r.buf); err != nil {
			r.err = err
		}
	}
}

// appendSample hand-rolls one JSONL line; the field names must stay in sync
// with Sample's json tags so DecodeTrace round-trips.
func appendSample(b []byte, s *Sample) []byte {
	b = append(b, '{')
	if s.Run != "" {
		b = append(b, `"run":`...)
		b = appendJSONString(b, s.Run)
		b = append(b, ',')
	}
	b = append(b, `"cycle":`...)
	b = strconv.AppendUint(b, s.Cycle, 10)
	b = appendFloatField(b, "t", s.WallSeconds)
	b = appendFloatField(b, "hot", s.HotTemp)
	b = appendFloatField(b, "duty", s.Duty)
	b = appendFloatField(b, "freq", s.FreqFactor)
	b = appendFloatField(b, "power", s.ChipPower)
	b = appendFloatField(b, "p", s.PTerm)
	b = appendFloatField(b, "i", s.ITerm)
	b = appendFloatField(b, "d", s.DTerm)
	b = append(b, `,"sat":`...)
	b = strconv.AppendBool(b, s.Saturated)
	b = append(b, `,"esc":`...)
	b = strconv.AppendUint(b, s.Escalations, 10)
	b = append(b, `,"blocks":[`...)
	for i, t := range s.BlockTemps {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, t)
	}
	b = append(b, ']', '}', '\n')
	return b
}

func appendFloatField(b []byte, name string, v float64) []byte {
	b = append(b, ',', '"')
	b = append(b, name...)
	b = append(b, '"', ':')
	return appendFloat(b, v)
}

// appendFloat emits a JSON number; NaN/Inf (not representable in JSON) are
// written as 0 rather than corrupting the stream.
func appendFloat(b []byte, v float64) []byte {
	if v != v || v > 1e308 || v < -1e308 {
		return append(b, '0')
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString emits a minimally escaped JSON string (run labels are
// benchmark/policy names; anything exotic falls back to \u escapes).
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// DecodeTrace reads a JSONL trace stream back into samples — the
// round-trip counterpart of the Recorder for tests and offline analysis.
func DecodeTrace(r io.Reader) ([]Sample, error) {
	var out []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var s Sample
		if err := json.Unmarshal(raw, &s); err != nil {
			return out, fmt.Errorf("telemetry: trace line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("telemetry: trace read: %w", err)
	}
	return out, nil
}
