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

// openTest opens a store with deterministic (manual) compaction.
func openTest(t *testing.T, dir string, mutate func(*Options)) *Store {
	t.Helper()
	opts := Options{NoAutoCompact: true}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := Open(dir, opts)
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
	// Overwrite supersedes; old bytes become dead.
	mustPut(t, s, "key-007", []byte("rewritten"))
	if got := mustGet(t, s, "key-007"); string(got) != "rewritten" {
		t.Errorf("overwrite returned %q", got)
	}
	if dead := deadBytes(s); dead == 0 || s.Len() != 100 {
		t.Errorf("after overwrite: %d dead bytes, %d entries, want dead bytes > 0 and 100 entries", dead, s.Len())
	}
}

func TestPackDeleteAndTombstoneSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, nil)
	mustPut(t, s, "kept", []byte("a"))
	mustPut(t, s, "gone", []byte("b"))
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("gone"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("deleted key err = %v", err)
	}
	s.Close()

	// The tombstone must hold across a cold-start rebuild.
	s2 := openTest(t, dir, nil)
	if _, err := s2.Get("gone"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("deleted key resurrected after reopen: err = %v", err)
	}
	if got := mustGet(t, s2, "kept"); string(got) != "a" {
		t.Fatalf("kept = %q", got)
	}
	if s2.Len() != 1 {
		t.Errorf("Len after reopen = %d, want 1", s2.Len())
	}
}

func TestPackReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) { o.MaxVolumeBytes = 1024 }) // force multiple volumes
	const n = 200
	for i := 0; i < n; i++ {
		mustPut(t, s, fmt.Sprintf("k%04d", i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	if len(s.order) < 2 {
		t.Fatalf("expected multiple volumes, got %d", len(s.order))
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
	s := openTest(t, dir, func(o *Options) { o.Metrics = m })
	mustPut(t, s, "healthy", []byte("fine"))
	mustPut(t, s, "victim", []byte("soon to be flipped"))

	// Flip one payload byte of the victim's needle on disk.
	loc, ok := s.locate("victim")
	if !ok {
		t.Fatal("victim not indexed")
	}
	vol := filepath.Join(dir, fmt.Sprintf("pack-%06d.dat", loc.vol))
	f, err := os.OpenFile(vol, os.O_RDWR, 0o644)
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

// Range verifies every needle it reads: corrupt ones are quarantined and
// skipped, never handed to fn.
func TestPackRangeQuarantinesCorruptNeedles(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	s := openTest(t, dir, func(o *Options) { o.Metrics = m })
	for i := 0; i < 20; i++ {
		mustPut(t, s, fmt.Sprintf("k%02d", i), bytes.Repeat([]byte("x"), 32))
	}
	for _, victim := range []string{"k03", "k11"} {
		loc, _ := s.locate(victim)
		f, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("pack-%06d.dat", loc.vol)), os.O_RDWR, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte{0xee}, loc.off+headerSize+int64(loc.keyLen)+1)
		f.Close()
	}
	for pass := 0; pass < 2; pass++ {
		seen := 0
		err := s.Range(func(key string, data []byte) bool {
			if key == "k03" || key == "k11" {
				t.Errorf("pass %d: Range served corrupt needle %s", pass, key)
			}
			seen++
			return true
		})
		if err != nil || seen != 18 {
			t.Errorf("pass %d: Range saw %d entries, err %v, want 18, nil", pass, seen, err)
		}
		if m.PackAuditFailures.Value() != 2 {
			t.Errorf("pass %d: PackAuditFailures = %d, want 2", pass, m.PackAuditFailures.Value())
		}
	}
	if s.Len() != 18 {
		t.Errorf("Len after Range = %d, want 18", s.Len())
	}
}

func TestPackCompactionReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	m := telemetry.NewCacheMetrics(telemetry.NewRegistry())
	s := openTest(t, dir, func(o *Options) {
		o.MaxVolumeBytes = 2048
		o.Metrics = m
	})
	// Fill several volumes, then overwrite most keys so early volumes
	// decay below the live-ratio threshold.
	const n = 60
	for round := 0; round < 3; round++ {
		for i := 0; i < n; i++ {
			mustPut(t, s, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("round %d value %02d", round, i)))
		}
	}
	if err := s.Delete("k00"); err != nil {
		t.Fatal(err)
	}
	pre := deadBytes(s)
	if pre == 0 {
		t.Fatal("no dead bytes to reclaim")
	}
	compactions := 0
	for {
		did, err := s.CompactOnce()
		if err != nil {
			t.Fatalf("CompactOnce: %v", err)
		}
		if !did {
			break
		}
		compactions++
	}
	if compactions == 0 {
		t.Fatal("no volume compacted")
	}
	if post := deadBytes(s); post >= pre {
		t.Errorf("dead bytes %d -> %d, want reclaimed", pre, post)
	}
	if m.PackCompactions.Value() != int64(compactions) {
		t.Errorf("PackCompactions = %d, want %d", m.PackCompactions.Value(), compactions)
	}
	// Every surviving entry still serves its latest value.
	for i := 1; i < n; i++ {
		got := mustGet(t, s, fmt.Sprintf("k%02d", i))
		if want := fmt.Sprintf("round 2 value %02d", i); string(got) != want {
			t.Fatalf("k%02d = %q, want %q", i, got, want)
		}
	}
	if _, err := s.Get("k00"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("deleted key after compaction: err = %v", err)
	}
	s.Close()

	// And the compacted volumes rebuild identically.
	s2 := openTest(t, dir, nil)
	if s2.Len() != n-1 {
		t.Fatalf("Len after compacted reopen = %d, want %d", s2.Len(), n-1)
	}
	if _, err := s2.Get("k00"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("deleted key resurrected after compaction + reopen")
	}
	for i := 1; i < n; i++ {
		got := mustGet(t, s2, fmt.Sprintf("k%02d", i))
		if want := fmt.Sprintf("round 2 value %02d", i); string(got) != want {
			t.Fatalf("reopened k%02d = %q, want %q", i, got, want)
		}
	}
}

func TestPackCompactionFaultLeavesVolumeIntact(t *testing.T) {
	s := openTest(t, t.TempDir(), func(o *Options) { o.MaxVolumeBytes = 1024 })
	for round := 0; round < 3; round++ {
		for i := 0; i < 30; i++ {
			mustPut(t, s, fmt.Sprintf("k%02d", i), bytes.Repeat([]byte("y"), 48))
		}
	}
	for _, op := range []string{"write", "rename"} {
		s.SetFaultHook(func(got string) error {
			if got == op {
				return errors.New("injected " + got + " fault")
			}
			return nil
		})
		if _, err := s.CompactOnce(); err == nil {
			t.Fatalf("CompactOnce with %s fault: no error", op)
		}
		s.SetFaultHook(nil)
		// Nothing lost: every key still serves, and no stray temp files.
		for i := 0; i < 30; i++ {
			mustGet(t, s, fmt.Sprintf("k%02d", i))
		}
		tmps, _ := filepath.Glob(filepath.Join(s.dir, "*.tmp"))
		if len(tmps) != 0 {
			t.Fatalf("%s fault left temp files: %v", op, tmps)
		}
	}
	// With the hook cleared the postponed compaction succeeds.
	if did, err := s.CompactOnce(); err != nil || !did {
		t.Fatalf("post-fault CompactOnce = %v, %v", did, err)
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

// TestZeroAllocNeedleLookup gates the lookup path (key → volume, offset,
// length): like the sim hot loop and the cluster routing decision, it
// must not allocate.
func TestZeroAllocNeedleLookup(t *testing.T) {
	s := openTest(t, t.TempDir(), nil)
	key := "sha256:cafef00dcafef00dcafef00dcafef00dcafef00dcafef00dcafef00dcafef00d"
	mustPut(t, s, key, bytes.Repeat([]byte("z"), 128))
	for i := 0; i < 64; i++ {
		mustPut(t, s, fmt.Sprintf("filler-%02d", i), []byte("x"))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		loc, ok := s.locate(key)
		if !ok || loc.size == 0 {
			panic("lookup failed")
		}
		if _, ok := s.locate("absent-key"); ok {
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

// deadBytes sums the dead bytes of every volume.
func deadBytes(s *Store) int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, v := range s.vols {
		n += v.dead
	}
	return n
}
