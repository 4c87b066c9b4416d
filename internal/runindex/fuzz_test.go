package runindex

import (
	"bytes"
	"net/url"
	"os"
	"path/filepath"
	"testing"
)

// The fuzz targets below hold three properties on untrusted bytes: no
// panic; nothing allocated from a length field beyond the bytes actually
// present (every decoded string fits inside its input); and corrupt input
// becomes a quarantined frame, a truncated tail or a parse error, never an
// Open error or a row that no whole CRC-valid frame encodes. Seed corpora live in
// testdata/fuzz; `go test -fuzz FuzzX -fuzztime 10s` explores further.

// FuzzDecodeRecord: a payload decodeRecord accepts is exactly the
// encoding of the row it returns, so a short, padded or partly written
// payload is never read as a row.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, p []byte) {
		r, ok := decodeRecord(p)
		if !ok {
			return
		}
		if n := len(r.Key) + len(r.Bench) + len(r.Policy); n > len(p) {
			t.Fatalf("decoded %d string bytes from a %d-byte payload", n, len(p))
		}
		if enc := appendRecord(nil, &r)[frameHeader:]; !bytes.Equal(enc, p) {
			t.Fatalf("accepted payload does not re-encode to itself:\n got %x\nwant %x", enc, p)
		}
	})
}

// FuzzCatalogScan: Open on arbitrary pack volume bytes succeeds, lists
// only rows whose whole CRC-valid frame the volume holds, and leaves a
// store that takes a new row and lists it after a reopen.
func FuzzCatalogScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, vol []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "pack-000000.dat")
		if err := os.WriteFile(path, vol, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on a corrupt volume: %v", err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		strBytes := 0
		for i := range c.recs {
			r := &c.recs[i]
			strBytes += len(r.Key) + len(r.Bench) + len(r.Policy)
			if !bytes.Contains(kept, appendRecord(nil, r)) {
				t.Fatalf("row %d (%q) is not the decoding of a whole frame in the volume", i, r.Key)
			}
			if got, ok := c.Get(r.Key); !ok || got.Key != r.Key {
				t.Fatalf("row %d (%q) not found by its key", i, r.Key)
			}
		}
		if strBytes > len(kept) {
			t.Fatalf("decoded %d string bytes from a %d-byte volume", strBytes, len(kept))
		}
		n := c.Len() + 1
		c.Put(testRecord(1 << 20))
		if c.Len() != n {
			t.Fatal("Put after the scan did not catalog a new key")
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer again.Close()
		if again.Len() != n {
			t.Fatalf("reopen lists %d rows, want %d", again.Len(), n)
		}
	})
}

// FuzzParseQuery: ParseQuery on arbitrary URL parameters either fails or
// yields a query whose every returned row satisfies every filter.
func FuzzParseQuery(f *testing.F) {
	c, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 64; i++ {
		c.Ingest(testRecord(i))
	}
	f.Fuzz(func(t *testing.T, raw string) {
		values, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := ParseQuery(values)
		if err != nil {
			return
		}
		if q.Limit < 0 {
			t.Fatalf("negative limit %d accepted", q.Limit)
		}
		for d, f := range q.Dims {
			if f.Set && !(f.Lo <= f.Hi) {
				t.Fatalf("%s range [%v, %v) accepted", Dim(d), f.Lo, f.Hi)
			}
		}
		res := c.Run(&q)
		for i := range res.Rows {
			if !q.matches(&res.Rows[i]) {
				t.Fatalf("row %q does not match query %+v", res.Rows[i].Key, q)
			}
		}
	})
}
