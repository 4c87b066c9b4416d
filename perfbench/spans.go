package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call into a layer. Parent is the index of the span
// that was open when this one began, or -1 for a root.
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the length of a traced run; they are
// written out once at the end. Spans nest through an explicit stack, so
// a tracer is used from one goroutine.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	cost  time.Duration // time spent inside begin/end themselves
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	c0 := time.Now()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	now := time.Now()
	t.spans[id].Start = now.Sub(t.t0)
	t.cost += now.Sub(c0)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) time.Duration {
	now := time.Now()
	t.spans[id].End = now.Sub(t.t0)
	t.open = t.open[:len(t.open)-1]
	t.cost += time.Since(now)
	return t.spans[id].dur()
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, f func()) time.Duration {
	id := t.begin(name)
	f()
	return t.end(id)
}

// selfTimes returns each span's duration minus its direct children's.
// Spans nest through the tracer's stack, so a span's children never
// overlap each other and never outlast it.
func selfTimes(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] += s.dur()
		if s.Parent >= 0 {
			out[s.Parent] -= s.dur()
		}
	}
	return out
}

// write dumps the spans with their self times as JSON lines.
func (t *tracer) write(w io.Writer) error {
	self := selfTimes(t.spans)
	enc := json.NewEncoder(w)
	for i, s := range t.spans {
		rec := struct {
			span
			ID   int           `json:"id"`
			Self time.Duration `json:"self_ns"`
		}{s, i, self[i]}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
