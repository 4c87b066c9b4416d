package main

import (
	"bytes"
	"net/http"
	"testing"
)

// The output check flags a tables output and a sweep CSV that differ from
// the reference by a single byte.
func TestDigestCheckFlagsCorruptedOutput(t *testing.T) {
	tables := []byte("\n=== Table 4: benchmark characterization (no DTM) ===\ngcc  0.51\n")
	csv := []byte("setpoint,ipc,pct_of_base,emerg_pct,stress_pct,avg_duty,engagements\n110.3,0.5099,100.00,0.000,0.000,1.000,0\n")
	for name, out := range map[string][]byte{"tables": tables, "sweep": csv} {
		ref := digest(out)
		if !checkDigest(out, ref) {
			t.Fatalf("%s: intact output rejected", name)
		}
		bad := bytes.Replace(out, []byte("0.5"), []byte("0.6"), 1)
		if checkDigest(bad, ref) {
			t.Errorf("%s: corrupted output accepted", name)
		}
		if checkDigest(out, "") {
			t.Errorf("%s: output accepted without a reference", name)
		}
	}
}

func body(id string, cached bool, ipc string) []byte {
	c := "false"
	if cached {
		c = "true"
	}
	return []byte(`{"request_id":"` + id + `","cached":` + c + `,"benchmark":"gcc","policy":"PI","ipc":` + ipc + `,"cycles":39224}`)
}

// A served body must equal the pre-stored body of its configuration, or
// the body first answered for it in the run; request_id and cached may
// differ. A mismatch, an error status, a shed or a planned hit answered by
// simulating is a failed operation, and only planned misses count towards
// the simulated cycles.
func TestServedBodyCheck(t *testing.T) {
	stored := request{Bench: "gcc", Policy: "PI", Insts: storedInsts}
	fresh := request{Bench: "gcc", Policy: "PI", Insts: storedInsts + 7, Kind: kindFresh}
	repeat := fresh
	repeat.Kind = kindRepeat
	canon, _, _, err := canonicalBody(body("x", true, "0.5"))
	if err != nil {
		t.Fatal(err)
	}
	expected := map[string]string{stored.id(): canon}

	sr := &servedRun{
		reqs: []request{stored, fresh, repeat, stored, repeat, stored, stored, repeat},
		outs: []outcome{
			{Status: 200, Body: body("a", true, "0.5")},  // matches the stored body
			{Status: 200, Body: body("b", false, "0.7")}, // first answer for fresh
			{Status: 200, Body: body("c", true, "0.7")},  // repeat agrees
			{Status: 200, Body: body("d", true, "0.9")},  // stored body changed
			{Status: 200, Body: body("e", true, "0.8")},  // repeat disagrees
			{Status: http.StatusTooManyRequests, Body: []byte(`{"error":"shed"}`)},
			{Status: 200, Body: body("f", false, "0.5")}, // stored body, but simulated
			{Status: 200, Body: body("g", false, "0.7")}, // repeat body, but simulated
		},
	}
	sr.evaluate(expected)
	if sr.attempted != 8 || sr.failed != 5 || sr.mismatches != 2 || sr.wrongClass != 2 {
		t.Errorf("attempted %d failed %d mismatches %d wrong class %d; want 8, 5, 2, 2",
			sr.attempted, sr.failed, sr.mismatches, sr.wrongClass)
	}
	if len(sr.hitLat) != 2 || len(sr.missLat) != 1 || sr.freshCycles != 39224 {
		t.Errorf("hits %d misses %d fresh cycles %d", len(sr.hitLat), len(sr.missLat), sr.freshCycles)
	}
}
