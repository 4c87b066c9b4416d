package packstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/telemetry"
)

func openTest(t *testing.T, dir string, mutate func(*Options)) *Store {
	t.Helper()
	var opts Options
	if mutate != nil {
		mutate(&opts)
	}
	s, err := Open(dir, opts, nil)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustPut(t *testing.T, s *Store, key string, data []byte) {
	t.Helper()
	if err := s.Put(key, data); err != nil {
		t.Fatalf("Put(%s): %v", key, err)
	}
}

func mustGet(t *testing.T, s *Store, key string) []byte {
	t.Helper()
	data, err := s.Get(key)
	if err != nil {
		t.Fatalf("Get(%s): %v", key, err)
	}
	return data
}

func TestPackRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	if _, err := s.Get("missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing key: err = %v, want fs.ErrNotExist", err)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, s, fmt.Sprintf("key-%03d", i), []byte(fmt.Sprintf("payload %d", i)))
	}
	for i := 0; i < 100; i++ {
		got := mustGet(t, s, fmt.Sprintf("key-%03d", i))
		if want := fmt.Sprintf("payload %d", i); string(got) != want {
			t.Fatalf("key-%03d = %q, want %q", i, got, want)
		}
	}
	if s.Len() != 100 {
		t.Errorf("Len = %d, want 100", s.Len())
	}
	// Overwrite supersedes.
	mustPut(t, s, "key-007", []byte("rewritten"))
	if got := mustGet(t, s, "key-007"); string(got) != "rewritten" {
		t.Errorf("overwrite returned %q", got)
	}
	if s.Len() != 100 {
		t.Errorf("after overwrite: %d entries, want 100", s.Len())
	}
}

// TestPackDeleteAndTombstoneSurvivesReopen opens a volume as older builds
// wrote it, with an overwrite and a tombstone (flags bit 0) that deletes
// a key: the deleted key is a miss, the overwritten key serves its last
// value, and a later Put of the deleted key serves across a reopen.
func TestPackDeleteAndTombstoneSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	mustPut(t, s, "kept", []byte("a"))
	mustPut(t, s, "gone", []byte("b"))
	mustPut(t, s, "over", []byte("first"))
	mustPut(t, s, "over", []byte("last"))
	s.Close()
	const flagTombstone = 0x01
	f, err := os.OpenFile(filepath.Join(dir, "pack-000000.dat"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeNeedle(flagTombstone, "gone", nil)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openTest(t, dir, nil)
	if _, err := s2.Get("gone"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("deleted key resurrected after reopen: err = %v", err)
	}
	if got := mustGet(t, s2, "kept"); string(got) != "a" {
		t.Fatalf("kept = %q", got)
	}
	if got := mustGet(t, s2, "over"); string(got) != "last" {
		t.Fatalf("over = %q, want its last value", got)
	}
	if s2.Len() != 2 {
		t.Errorf("Len after reopen = %d, want 2", s2.Len())
	}
	mustPut(t, s2, "gone", []byte("again"))
	s2.Close()

	s3 := openTest(t, dir, nil)
	if got := mustGet(t, s3, "gone"); string(got) != "again" {
		t.Fatalf("key stored after its tombstone = %q", got)
	}
}

func TestPackReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) { o.MaxVolumeBytes = 1024 }) // force multiple volumes
	const n = 200
	for i := 0; i < n; i++ {
		mustPut(t, s, fmt.Sprintf("k%04d", i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if len(s.vols) < 2 {
		t.Fatalf("expected multiple volumes, got %d", len(s.vols))
	}
	s.Close()

	s2 := openTest(t, dir, nil)
	if s2.Len() != n {
		t.Fatalf("rebuilt Len = %d, want %d", s2.Len(), n)
	}
	for i := 0; i < n; i++ {
		got := mustGet(t, s2, fmt.Sprintf("k%04d", i))
		if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("k%04d corrupted after rebuild", i)
		}
	}
}

// TestPackTornTailTruncatedOnReopen is the SIGKILL-mid-append contract:
// a partial needle at the active volume's tail is truncated by the
// cold-start scan and every earlier entry is served.
func TestPackTornTailTruncatedOnReopen(t *testing.T) {
	for _, tear := range []struct {
		name string
		cut  func(full []byte) []byte // bytes to append as the torn tail
	}{
		{"header-only", func(full []byte) []byte { return full[:headerSize-3] }},
		{"mid-key", func(full []byte) []byte { return full[:headerSize+4] }},
		{"mid-data", func(full []byte) []byte { return full[:len(full)-5] }},
		{"garbage", func(full []byte) []byte { return []byte("not a needle at all") }},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTest(t, dir, nil)
			for i := 0; i < 10; i++ {
				mustPut(t, s, fmt.Sprintf("pre-%d", i), []byte(fmt.Sprintf("value %d", i)))
			}
			s.Close()

			// Simulate the kill: append a torn needle directly to the
			// active volume, as if the process died mid-write.
			vol := filepath.Join(dir, "pack-000000.dat")
			full := encodeNeedle(0, "torn-key", []byte("torn payload that never finished"))
			f, err := os.OpenFile(vol, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := f.Seek(0, 2)
			if _, err := f.Write(tear.cut(full)); err != nil {
				t.Fatal(err)
			}
			f.Close()

			s2 := openTest(t, dir, nil)
			if s2.Len() != 10 {
				t.Fatalf("Len after torn-tail reopen = %d, want 10", s2.Len())
			}
			for i := 0; i < 10; i++ {
				got := mustGet(t, s2, fmt.Sprintf("pre-%d", i))
				if want := fmt.Sprintf("value %d", i); string(got) != want {
					t.Fatalf("pre-%d = %q, want %q", i, got, want)
				}
			}
			if st, err := os.Stat(vol); err != nil || st.Size() != before {
				t.Errorf("volume size = %d (err %v), want truncated back to %d", st.Size(), err, before)
			}
			// The store must keep working past the recovered tail.
			mustPut(t, s2, "post", []byte("after recovery"))
			if got := mustGet(t, s2, "post"); string(got) != "after recovery" {
				t.Fatalf("post-recovery put = %q", got)
			}
		})
	}
}

func TestPackCorruptNeedleQuarantinedAsMiss(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	s := openTest(t, dir, nil)
	s.SetMetrics(m)
	mustPut(t, s, "healthy", []byte("fine"))
	mustPut(t, s, "victim", []byte("soon to be flipped"))

	// Flip one payload byte of the victim's needle on disk.
	loc, _, ok := s.locate("victim")
	if !ok {
		t.Fatal("victim not indexed")
	}
	f, err := os.OpenFile(s.volumePath(s.vols[loc.vol].id), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, loc.off+headerSize+int64(loc.keyLen)+3); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := s.Get("victim"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("corrupt needle err = %v, want fs.ErrNotExist (miss)", err)
	}
	if _, err := s.Get("victim"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("quarantined needle served on second read")
	}
	if got := mustGet(t, s, "healthy"); string(got) != "fine" {
		t.Fatalf("healthy neighbor = %q", got)
	}
	if m.PackAuditFailures.Value() != 1 {
		t.Errorf("PackAuditFailures = %d, want 1", m.PackAuditFailures.Value())
	}
	// Self-healing: a recompute re-stores under the same key.
	mustPut(t, s, "victim", []byte("recomputed"))
	if got := mustGet(t, s, "victim"); string(got) != "recomputed" {
		t.Fatalf("re-stored victim = %q", got)
	}
}

// Reading every key quarantines the corrupt needles, whose keys then
// drop out of Len and stay misses on a second pass.
func TestPackKeysDropQuarantinedNeedles(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	s := openTest(t, dir, nil)
	s.SetMetrics(m)
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), bytes.Repeat([]byte("x"), 32))
	}
	for _, victim := range []string{"k03", "k11"} {
		loc, _, _ := s.locate(victim)
		f, err := os.OpenFile(s.volumePath(s.vols[loc.vol].id), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte{0xee}, loc.off+headerSize+int64(loc.keyLen)+1)
		f.Close()
	}
	for pass, listed := range []int{20, 18} {
		if s.Len() != listed {
			t.Errorf("pass %d: Len = %d entries, want %d", pass, s.Len(), listed)
		}
		served := 0
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%02d", i)
			_, err := s.Get(key)
			if err == nil {
				served++
				if key == "k03" || key == "k11" {
					t.Errorf("pass %d: Get served corrupt needle %s", pass, key)
				}
			} else if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("pass %d: Get(%s): %v", pass, key, err)
			}
		}
		if served != 18 {
			t.Errorf("pass %d: served %d entries, want 18", pass, served)
		}
		if m.PackAuditFailures.Value() != 2 {
			t.Errorf("pass %d: PackAuditFailures = %d, want 2", pass, m.PackAuditFailures.Value())
		}
	}
}

// TestPackScanHandsEveryNeedle: the scan function sees every needle the
// open-time scan keeps, superseded ones included, in append order and
// not tombstones, each with its payload head; then every Put's needle.
func TestPackScanHandsEveryNeedle(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	mustPut(t, s, "a", []byte("first"))
	mustPut(t, s, "b", bytes.Repeat([]byte("b"), scanBuf+10))
	mustPut(t, s, "a", []byte("second"))
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, "pack-000000.dat"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeNeedle(0x01, "b", nil)); err != nil { // an older build's tombstone
		t.Fatal(err)
	}
	f.Close()

	var got []string
	s2, err := Open(dir, Options{}, func(key string, head []byte) {
		got = append(got, fmt.Sprintf("%s:%d:%.6s", key, len(head), head))
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	mustPut(t, s2, "c", []byte("third"))
	want := []string{"a:5:first", fmt.Sprintf("b:%d:bbbbbb", scanBuf), "a:6:second", "c:5:third"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("scan handed %q, want %q", got, want)
	}
}

func TestPackAppendFaultSurfaces(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	s.SetFaultHook(func(op string) error {
		if op == "write" {
			return errors.New("injected write fault")
		}
		return nil
	})
	if err := s.Put("k", []byte("v")); err == nil {
		t.Fatal("Put with write fault: no error")
	}
	s.SetFaultHook(nil)
	if _, err := s.Get("k"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed put visible: err = %v", err)
	}
	mustPut(t, s, "k", []byte("v"))
	if got := mustGet(t, s, "k"); string(got) != "v" {
		t.Fatalf("k = %q", got)
	}
}

// TestZeroAllocNeedleLookup gates the lookup path Get takes (key →
// volume file, offset, length): like the sim hot loop and the cluster
// routing decision, it must not allocate.
func TestZeroAllocNeedleLookup(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	key := "sha256:cafef00dcafef00dcafef00dcafef00dcafef00dcafef00dcafef00dcafef00d"
	mustPut(t, s, key, bytes.Repeat([]byte("z"), 128))
	for i := 0; i < 64; i++ {
		mustPut(t, s, fmt.Sprintf("filler-%02d", i), []byte("x"))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		loc, f, ok := s.locate(key)
		if !ok || loc.size == 0 || f == nil {
			panic("lookup failed")
		}
		if _, _, ok := s.locate("absent-key"); ok {
			panic("phantom")
		}
	})
	if allocs != 0 {
		t.Errorf("needle lookup allocates %.1f per op, want 0", allocs)
	}
}

// TestPackNeedleCRCCoversFlagsKeyData pins the on-disk CRC definition so
// a format change cannot silently pass verification.
func TestPackNeedleCRCCoversFlagsKeyData(t *testing.T) {
	buf := encodeNeedle(0, "abc", []byte("defg"))
	crc := binary.LittleEndian.Uint32(buf[11:15])
	h := crc32.NewIEEE()
	h.Write([]byte{0})
	h.Write([]byte("abcdefg"))
	if crc != h.Sum32() {
		t.Fatalf("crc = %08x, want %08x", crc, h.Sum32())
	}
	if data, ok := verifyNeedle(buf, "abc"); !ok || string(data) != "defg" {
		t.Fatalf("verifyNeedle = %q, %v", data, ok)
	}
	buf[headerSize+1] ^= 0x01 // flip a key byte
	if _, ok := verifyNeedle(buf, "abc"); ok {
		t.Fatal("verifyNeedle accepted a flipped key byte")
	}
}

func TestPackKeyAndPayloadBounds(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	if err := s.Put("", []byte("v")); err == nil {
		t.Error("empty key accepted")
	}
	long := string(bytes.Repeat([]byte("k"), 0x10000))
	if err := s.Put(long, []byte("v")); err == nil {
		t.Error("oversized key accepted")
	}
}
