package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// FuzzDecodeTrace holds three properties on untrusted trace bytes: no
// panic; nothing allocated beyond the bytes actually present (every
// decoded label and block list fits inside the input); and a malformed
// line is an error that keeps the samples of the lines before it, never a
// partial or phantom Sample. Every sample accepted also re-encodes
// through the Recorder's encoder to itself. Seed corpora live in
// testdata/fuzz; `go test -fuzz FuzzDecodeTrace -fuzztime 10s` explores
// further.
func FuzzDecodeTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := DecodeTrace(bytes.NewReader(data))
		for i := range out {
			if len(out[i].Run) > len(data) || len(out[i].BlockTemps) > len(data) {
				t.Fatalf("sample %d holds %d label bytes and %d blocks from %d input bytes",
					i, len(out[i].Run), len(out[i].BlockTemps), len(data))
			}
		}
		lines := bytes.SplitAfter(data, []byte("\n"))
		if err != nil {
			var bad int
			if _, scanErr := fmt.Sscanf(err.Error(), "telemetry: trace line %d:", &bad); scanErr != nil {
				return // a read error (an over-long line), not a line error
			}
			// The samples returned are exactly those of the lines before
			// the bad one, which decode cleanly on their own.
			before, err := DecodeTrace(bytes.NewReader(bytes.Join(lines[:bad-1], nil)))
			if err != nil || !samplesEqual(before, out) {
				t.Fatalf("line %d failed, but the %d lines before it decode to %d samples (err %v), not the %d returned",
					bad, bad-1, len(before), err, len(out))
			}
			return
		}
		nonEmpty := 0
		for _, l := range lines {
			if len(bytes.TrimRight(l, "\r\n")) == 0 {
				continue
			}
			nonEmpty++
			if obj := bytes.TrimLeft(l, " \t\r"); obj[0] != '{' {
				t.Fatalf("accepted line %q is not a JSON object", l)
			}
		}
		if len(out) != nonEmpty {
			t.Fatalf("%d samples from %d non-empty lines", len(out), nonEmpty)
		}
		var enc []byte
		for i := range out {
			enc = appendSample(enc, &out[i])
		}
		again, err := DecodeTrace(bytes.NewReader(enc))
		if err != nil || !samplesEqual(again, out) {
			t.Fatalf("decoded samples do not re-encode to themselves (err %v):\n%s", err, enc)
		}
	})
}

// samplesEqual compares samples field by field; a nil and an empty
// block list are equal (the encoder writes both as []).
func samplesEqual(a, b []Sample) bool {
	return slices.EqualFunc(a, b, func(x, y Sample) bool {
		if !slices.Equal(x.BlockTemps, y.BlockTemps) {
			return false
		}
		x.BlockTemps, y.BlockTemps = nil, nil
		return reflect.DeepEqual(x, y)
	})
}
