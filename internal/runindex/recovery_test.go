package runindex

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/packstore"
	"repro/internal/sim"
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

// TestCrashRecoveryTornLog simulates a SIGKILL mid-append: the catalog
// log ends in half a frame and an earlier frame is corrupted in place.
// Reopening must truncate the torn tail, quarantine the corrupt frame as
// a miss, and serve everything else; a rebuild from the surviving pack
// store must then restore an index identical to the pre-kill one.
func TestCrashRecoveryTornLog(t *testing.T) {
	dir := t.TempDir()
	packDir := filepath.Join(dir, "pack")
	catDir := filepath.Join(dir, "catalog")

	store, err := packstore.Open(packDir, packstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Open(catDir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Ingest through both paths, as cmd/serve does: the result JSON into
	// the pack store, the flattened record into the catalog.
	const n = 500
	for i := 0; i < n; i++ {
		rec := testRecord(i)
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
		if err := store.Put(rec.Key, blob); err != nil {
			t.Fatal(err)
		}
		if !c.Ingest(rec) {
			t.Fatalf("ingest %d failed", i)
		}
	}
	want := snapshotCatalog(t, c)
	// SIGKILL: no Close, just drop the handles and mangle the log.
	c.logf.Close()

	logPath := filepath.Join(catDir, "catalog.log")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the 3rd frame's payload in place (CRC now mismatches) and
	// tear the tail mid-frame.
	off := 0
	for i := 0; i < 2; i++ {
		off += frameHeader + int(binary.LittleEndian.Uint32(raw[off+4:]))
	}
	corruptKey := testRecord(2).Key
	raw[off+frameHeader+10] ^= 0xff
	torn := raw[:len(raw)-7]
	if err := os.WriteFile(logPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(catDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	// The torn tail loses the last record; the corrupt frame is a miss.
	if reopened.Len() != n-2 {
		t.Fatalf("reopened Len = %d, want %d (one torn, one quarantined)", reopened.Len(), n-2)
	}
	if reopened.quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", reopened.quarantined)
	}
	if _, ok := reopened.Get(corruptKey); ok {
		t.Fatal("corrupt frame still serves")
	}
	if _, ok := reopened.Get(testRecord(n - 1).Key); ok {
		t.Fatal("torn tail record still serves")
	}

	// Cold rebuild from the pack store recovers both lost records.
	added, err := reopened.RebuildFromStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("RebuildFromStore recovered %d records, want 2", added)
	}
	if reopened.Len() != n {
		t.Fatalf("Len = %d after rebuild, want %d", reopened.Len(), n)
	}
	got := snapshotCatalog(t, reopened)
	if !reflect.DeepEqual(got.keys, want.keys) {
		t.Fatalf("rebuilt key set differs: %d vs %d keys", len(got.keys), len(want.keys))
	}
	for raw, wantRows := range want.queries {
		if !reflect.DeepEqual(got.queries[raw], wantRows) {
			t.Fatalf("rebuilt query %q differs: %d vs %d rows", raw, len(got.queries[raw]), len(wantRows))
		}
	}
	store.Close()

	// The rebuild re-logged the recovered records: a further cold start
	// needs no pack store at all.
	reopened.Close()
	third, err := Open(catDir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	if third.Len() != n {
		t.Fatalf("post-rebuild cold start Len = %d, want %d", third.Len(), n)
	}
}

// TestRebuildSkipsForeignBlobs checks a pack store holding non-result
// payloads does not poison the catalog.
func TestRebuildSkipsForeignBlobs(t *testing.T) {
	dir := t.TempDir()
	store, err := packstore.Open(dir, packstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Put("junk:1", []byte("not json"))
	store.Put("junk:2", []byte(`{"note":"json but not a result"}`))
	rec := testRecord(0)
	res := sim.Result{Benchmark: rec.Bench, Policy: rec.Policy, IPC: rec.IPC}
	blob, _ := json.Marshal(&res)
	store.Put(rec.Key, blob)

	c, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	added, err := c.RebuildFromStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 || c.Len() != 1 {
		t.Fatalf("rebuild added %d records (Len %d), want 1", added, c.Len())
	}
	if _, ok := c.Get(rec.Key); !ok {
		t.Fatal("the one real result is missing")
	}
}
