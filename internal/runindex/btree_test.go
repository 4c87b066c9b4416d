package runindex

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

type refEntry struct {
	key uint64
	id  int32
}

// collectRange gathers the reference model's answer for [lo, hi).
func refRange(ref []refEntry, lo, hi uint64) []refEntry {
	var out []refEntry
	for _, e := range ref {
		if e.key >= lo && e.key < hi {
			out = append(out, e)
		}
	}
	return out
}

// TestBtreeRandomizedVsReference drives the tree with random inserts
// (heavy on duplicate keys, the catalog's normal case) and checks every
// range scan against a sorted-slice reference model.
func TestBtreeRandomizedVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tree := newBtree()
	var ref []refEntry
	const n = 20000
	for i := 0; i < n; i++ {
		// 64 distinct keys over 20000 inserts: long duplicate runs.
		key := uint64(rng.Intn(64)) * 1000
		id := int32(i)
		tree.insert(key, id)
		ref = append(ref, refEntry{key, id})
	}
	if tree.size != n {
		t.Fatalf("tree.size = %d, want %d", tree.size, n)
	}
	sort.Slice(ref, func(i, j int) bool {
		return less(ref[i].key, ref[i].id, ref[j].key, ref[j].id)
	})

	check := func(lo, hi uint64) {
		t.Helper()
		want := refRange(ref, lo, hi)
		var got []refEntry
		visited := tree.ascend(lo, hi, func(k uint64, id int32) bool {
			got = append(got, refEntry{k, id})
			return true
		})
		if visited != len(want) || len(got) != len(want) {
			t.Fatalf("ascend(%d,%d): %d entries, want %d", lo, hi, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ascend(%d,%d)[%d] = %+v, want %+v", lo, hi, i, got[i], want[i])
			}
		}
		for _, limit := range []int{0, 1, len(want) / 2, len(want), len(want) + 1, math.MaxInt} {
			if c := tree.count(lo, hi, limit); c != min(len(want), limit) {
				t.Fatalf("count(%d,%d,%d) = %d, want %d", lo, hi, limit, c, min(len(want), limit))
			}
		}
	}

	check(0, math.MaxUint64)   // everything
	check(0, 1)                // empty below
	check(63*1000+1, 64*1000)  // empty above the top key
	check(1000, 1001)          // one duplicate run
	check(10*1000, 20*1000)    // middle band
	check(5*1000+1, 5*1000+2)  // between keys: empty
	for i := 0; i < 200; i++ { // random bands
		lo := uint64(rng.Intn(70)) * 1000
		hi := lo + uint64(rng.Intn(20))*1000
		check(lo, hi)
	}
}

// TestBtreeUniqueKeysOrdered inserts distinct keys in random order and
// verifies a full ascend yields them sorted.
func TestBtreeUniqueKeysOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree := newBtree()
	keys := rng.Perm(5000)
	for i, k := range keys {
		tree.insert(uint64(k), int32(i))
	}
	prev := uint64(0)
	first := true
	count := tree.ascend(0, math.MaxUint64, func(k uint64, _ int32) bool {
		if !first && k <= prev {
			t.Fatalf("out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		return true
	})
	if count != len(keys) {
		t.Fatalf("visited %d, want %d", count, len(keys))
	}
}

// TestBtreeEarlyStop verifies the visitor can stop a scan.
func TestBtreeEarlyStop(t *testing.T) {
	tree := newBtree()
	for i := 0; i < 1000; i++ {
		tree.insert(uint64(i), int32(i))
	}
	seen := 0
	tree.ascend(0, math.MaxUint64, func(uint64, int32) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("early stop visited %d, want 10", seen)
	}
}

// TestKeyBitsOrderPreserving checks the float→uint64 transform preserves
// ordering across signs and magnitudes.
func TestKeyBitsOrderPreserving(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -111.3, -1, -1e-300, math.Copysign(0, -1), 0, 1e-300, 1, 81.5, 111.3, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a, b := vals[i-1], vals[i]
		ka, kb := keyBits(a), keyBits(b)
		if a < b && ka >= kb {
			t.Errorf("keyBits(%g)=%d !< keyBits(%g)=%d", a, ka, b, kb)
		}
		if a == b && ka != kb {
			t.Errorf("keyBits(%g) != keyBits(%g) for equal values", a, b)
		}
	}
}

// TestBtreeReserveNoGrowth checks reserve pre-sizes the arena so the
// promised inserts never reallocate it.
func TestBtreeReserveNoGrowth(t *testing.T) {
	tree := newBtree()
	const n = 10000
	tree.reserve(n)
	capBefore := cap(tree.nodes)
	for i := 0; i < n; i++ {
		tree.insert(uint64(i%97), int32(i))
	}
	if cap(tree.nodes) != capBefore {
		t.Fatalf("arena grew from %d to %d despite reserve(%d)", capBefore, cap(tree.nodes), n)
	}
}
