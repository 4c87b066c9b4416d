package runindex

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/packstore"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// snapshot captures everything queries can observe: the key set and a
// few representative query answers.
type catalogSnapshot struct {
	keys    []string
	queries map[string][]Record
}

func snapshotCatalog(t *testing.T, c *Catalog) catalogSnapshot {
	t.Helper()
	s := catalogSnapshot{queries: map[string][]Record{}}
	for i := range c.recs {
		s.keys = append(s.keys, c.recs[i].Key)
	}
	sort.Strings(s.keys)
	for _, raw := range []string{
		"trigger=110:111&limit=100000",
		"policy=PI&limit=100000",
		"bench=hotspot&interval=250:2000&limit=100000",
	} {
		q, err := ParseQuery(mustParseQuery(t, raw))
		if err != nil {
			t.Fatal(err)
		}
		rows := c.Run(&q).Rows
		sort.Slice(rows, func(i, j int) bool { return rows[i].Key < rows[j].Key })
		s.queries[raw] = rows
	}
	return s
}

// resultBlob is the JSON a cache Put stores for rec's run.
func resultBlob(t *testing.T, rec Record) []byte {
	t.Helper()
	res := sim.Result{
		Benchmark: rec.Bench,
		Policy:    rec.Policy,
		Dims: sim.RunDims{
			Trigger:  rec.Trigger,
			Kp:       rec.Kp,
			Ki:       rec.Ki,
			Interval: uint64(rec.Interval),
			Stride:   uint64(rec.Stride),
			Insts:    uint64(rec.Insts),
			Cores:    int(rec.Cores),
		},
		IPC:          rec.IPC,
		AvgChipPower: rec.AvgPower,
		AvgDuty:      rec.AvgDuty,
		Engagements:  rec.Engagements,
		Cycles:       rec.Cycles,
	}
	blob, err := json.Marshal(&res)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCrashRecoveryTornLog simulates a SIGKILL mid-append: the pack
// volume, the store's append log, ends in half a needle, and an earlier
// needle's row frame is corrupted in place. Reopening must truncate the
// torn tail, drop the corrupt row as quarantined, and serve every other
// row; storing the two lost results again must restore an index
// identical to the pre-kill one.
func TestCrashRecoveryTornLog(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	blobs := make([][]byte, n)
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		blobs[i] = resultBlob(t, rec)
		if err := c.Store().Put(rec.Key, Frame(rec, blobs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d after %d Puts", c.Len(), n)
	}
	want := snapshotCatalog(t, c)
	c.Close()

	// Corrupt the row frame of the 3rd needle in place and tear the tail
	// mid-needle.
	vol := filepath.Join(dir, "pack-000000.dat")
	raw, err := os.ReadFile(vol)
	if err != nil {
		t.Fatal(err)
	}
	corruptKey := testRecord(2).Key
	at := bytes.Index(raw, Frame(testRecord(2), nil))
	if at < 0 {
		t.Fatal("third row frame not found in the volume")
	}
	raw[at+frameHeader+10] ^= 0xff
	if err := os.WriteFile(vol, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	m := telemetry.NewIndexMetrics(telemetry.NewRegistry())
	reopened, err := Open(dir, Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if reopened.Len() != n-2 {
		t.Fatalf("reopened Len = %d, want %d (one torn, one quarantined)", reopened.Len(), n-2)
	}
	if q := m.Quarantined.Value(); q != 1 {
		t.Fatalf("quarantined = %d, want 1", q)
	}
	if _, ok := reopened.Get(corruptKey); ok {
		t.Fatal("corrupt row frame still serves")
	}
	if _, ok := reopened.Get(testRecord(n - 1).Key); ok {
		t.Fatal("torn tail record still serves")
	}

	// Recomputing the two lost results stores their rows again.
	for _, i := range []int{2, n - 1} {
		rec := testRecord(i)
		if err := reopened.Store().Put(rec.Key, Frame(rec, blobs[i])); err != nil {
			t.Fatal(err)
		}
	}
	got := snapshotCatalog(t, reopened)
	if !reflect.DeepEqual(got.keys, want.keys) {
		t.Fatalf("recovered key set differs: %d vs %d keys", len(got.keys), len(want.keys))
	}
	for raw, wantRows := range want.queries {
		if !reflect.DeepEqual(got.queries[raw], wantRows) {
			t.Fatalf("recovered query %q differs: %d vs %d rows", raw, len(got.queries[raw]), len(wantRows))
		}
	}
	reopened.Close()
	third, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if third.Len() != n {
		t.Fatalf("third open Len = %d, want %d", third.Len(), n)
	}
}

// TestRebuildSkipsForeignBlobs: a pack store holding needles with no row
// frame, as an older build wrote them, opens with a row for each result
// and none for the blobs that are not results. Every such needle is read
// and stored again framed once, so a second open lists the same rows and
// appends nothing.
func TestRebuildSkipsForeignBlobs(t *testing.T) {
	dir := t.TempDir()
	store, err := packstore.Open(dir, packstore.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	store.Put("junk:1", []byte("not json"))
	store.Put("junk:2", []byte(`{"note":"json but not a result"}`))
	rec := testRecord(0)
	res := sim.Result{Benchmark: rec.Bench, Policy: rec.Policy, IPC: rec.IPC}
	blob, _ := json.Marshal(&res)
	store.Put(rec.Key, blob)
	store.Close()

	var sizes [2]int64
	for pass := range sizes {
		c, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.Len() != 1 {
			t.Fatalf("pass %d: Len %d, want 1", pass, c.Len())
		}
		if got, ok := c.Get(rec.Key); !ok || got.Bench != rec.Bench || got.IPC != rec.IPC {
			t.Fatalf("pass %d: the one real result's row = %+v, %v", pass, got, ok)
		}
		for _, key := range []string{"junk:1", "junk:2", rec.Key} {
			if data, err := c.Store().Get(key); err != nil || len(Body(data)) == len(data) {
				t.Fatalf("pass %d: %s is not stored framed: %q, %v", pass, key, data, err)
			}
		}
		c.Close()
		st, err := os.Stat(filepath.Join(dir, "pack-000000.dat"))
		if err != nil {
			t.Fatal(err)
		}
		sizes[pass] = st.Size()
	}
	if sizes[1] != sizes[0] {
		t.Errorf("the second open grew the volume %d -> %d bytes", sizes[0], sizes[1])
	}
}
