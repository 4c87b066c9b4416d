package runindex

// Arena-based B+-tree mapping (uint64 key, int32 record id) pairs to
// leaves linked in key order — the secondary-index structure behind every
// catalog dimension. Nodes live in one slice indexed by int32, so an
// insert in the steady state (arena capacity pre-grown by reserve) touches
// no allocator at all, which is what puts catalog ingest under the
// repository's zero-allocation gate. Duplicate keys are expected — many
// runs share a trigger temperature — so entries are ordered by the
// composite (key, id) and range scans simply visit every id in a key's
// run of the leaf chain.
//
// Float dimensions are mapped to uint64 by the order-preserving transform
// in keyBits (sign-flip encoding), so one integer tree serves every
// dimension type.

import "math"

// btreeOrder is the maximum entries per node; nodes split at this fan-out
// and never fall below half of it (inserts only, no deletes: the catalog
// is append-only like the stores beneath it).
const btreeOrder = 32

// bnode is one arena slot, serving as both leaf and internal node. Leaves
// use keys/ids as entry pairs and next as the right-sibling link; internal
// nodes use keys/ids as separator pairs and kids as children (one more
// child than separators).
type bnode struct {
	n    int16
	leaf bool
	next int32 // leaf chain; -1 at the rightmost leaf
	keys [btreeOrder]uint64
	ids  [btreeOrder]int32
	kids [btreeOrder + 1]int32
}

// btree is one secondary index. The zero value is not ready; use newBtree.
type btree struct {
	nodes []bnode
	root  int32
	size  int
}

func newBtree() *btree {
	t := &btree{nodes: make([]bnode, 1, 8)}
	t.nodes[0] = bnode{leaf: true, next: -1}
	return t
}

// reserve grows the arena so the next n inserts cannot reallocate it.
// Worst case every node is half full: n entries need at most n/(order/2)
// leaves and as many internal nodes again.
func (t *btree) reserve(n int) {
	need := len(t.nodes) + 2*(n/(btreeOrder/2)+2)
	if cap(t.nodes) >= need {
		return
	}
	nodes := make([]bnode, len(t.nodes), need)
	copy(nodes, t.nodes)
	t.nodes = nodes
}

// keyBits maps a float64 onto uint64 preserving order: positive floats
// get the sign bit set, negative floats are bit-flipped, so unsigned
// comparison of the images matches float comparison of the sources.
func keyBits(f float64) uint64 {
	if f == 0 {
		f = 0 // collapse -0 onto +0 so equal floats share an image
	}
	b := math.Float64bits(f)
	if b&(1<<63) != 0 {
		return ^b
	}
	return b | 1<<63
}

// less orders composite entries.
func less(k1 uint64, i1 int32, k2 uint64, i2 int32) bool {
	return k1 < k2 || (k1 == k2 && i1 < i2)
}

// alloc appends one arena slot and returns its index. Callers must
// re-derive any *bnode pointers they hold: append may move the arena.
func (t *btree) alloc(n bnode) int32 {
	t.nodes = append(t.nodes, n)
	return int32(len(t.nodes) - 1)
}

// splitChild splits the full ci-th child of parent (which has spare
// room), promoting a separator. B+ semantics: a leaf split copies the new
// right leaf's first entry up; an internal split moves the middle
// separator up.
func (t *btree) splitChild(parent int32, ci int) {
	childIdx := t.nodes[parent].kids[ci]
	var newIdx int32
	var sepKey uint64
	var sepID int32
	if t.nodes[childIdx].leaf {
		mid := int16(btreeOrder / 2)
		right := bnode{leaf: true}
		child := &t.nodes[childIdx]
		right.n = child.n - mid
		copy(right.keys[:], child.keys[mid:child.n])
		copy(right.ids[:], child.ids[mid:child.n])
		right.next = child.next
		child.n = mid
		sepKey, sepID = right.keys[0], right.ids[0]
		newIdx = t.alloc(right) // may move arena: child pointer dead now
		t.nodes[childIdx].next = newIdx
	} else {
		mid := int16(btreeOrder / 2)
		right := bnode{next: -1}
		child := &t.nodes[childIdx]
		sepKey, sepID = child.keys[mid], child.ids[mid]
		right.n = child.n - mid - 1
		copy(right.keys[:], child.keys[mid+1:child.n])
		copy(right.ids[:], child.ids[mid+1:child.n])
		copy(right.kids[:], child.kids[mid+1:child.n+1])
		child.n = mid
		newIdx = t.alloc(right)
	}
	p := &t.nodes[parent]
	for j := int(p.n); j > ci; j-- {
		p.keys[j] = p.keys[j-1]
		p.ids[j] = p.ids[j-1]
		p.kids[j+1] = p.kids[j]
	}
	p.keys[ci] = sepKey
	p.ids[ci] = sepID
	p.kids[ci+1] = newIdx
	p.n++
}

// insert adds one (key, id) entry, splitting full nodes top-down so no
// parent back-patching is needed after arena growth.
func (t *btree) insert(key uint64, id int32) {
	if t.nodes[t.root].n == btreeOrder {
		newRoot := t.alloc(bnode{next: -1})
		t.nodes[newRoot].kids[0] = t.root
		t.root = newRoot
		t.splitChild(newRoot, 0)
	}
	cur := t.root
	for !t.nodes[cur].leaf {
		nd := &t.nodes[cur]
		// Child for (key,id): past every separator <= it.
		ci := 0
		for ci < int(nd.n) && !less(key, id, nd.keys[ci], nd.ids[ci]) {
			ci++
		}
		if t.nodes[nd.kids[ci]].n == btreeOrder {
			t.splitChild(cur, ci)
			nd = &t.nodes[cur]
			if ci < int(nd.n) && !less(key, id, nd.keys[ci], nd.ids[ci]) {
				ci++
			}
		}
		cur = t.nodes[cur].kids[ci]
	}
	leaf := &t.nodes[cur]
	i := int(leaf.n)
	for i > 0 && less(key, id, leaf.keys[i-1], leaf.ids[i-1]) {
		leaf.keys[i] = leaf.keys[i-1]
		leaf.ids[i] = leaf.ids[i-1]
		i--
	}
	leaf.keys[i] = key
	leaf.ids[i] = id
	leaf.n++
	t.size++
}

// ascend visits entries with key in [lo, hi) in (key, id) order, walking
// the leaf chain; visit returning false stops the scan. Returns the
// number of entries visited.
func (t *btree) ascend(lo, hi uint64, visit func(key uint64, id int32) bool) int {
	visited := 0
	for cur := t.seek(lo); cur >= 0; {
		nd := &t.nodes[cur]
		for i := 0; i < int(nd.n); i++ {
			k := nd.keys[i]
			if k < lo {
				continue
			}
			if k >= hi {
				return visited
			}
			visited++
			if !visit(k, nd.ids[i]) {
				return visited
			}
		}
		cur = nd.next
	}
	return visited
}

// seek descends to the leaf that could hold (lo, minId).
func (t *btree) seek(lo uint64) int32 {
	cur := t.root
	for !t.nodes[cur].leaf {
		nd := &t.nodes[cur]
		ci := 0
		for ci < int(nd.n) && !less(lo, math.MinInt32, nd.keys[ci], nd.ids[ci]) {
			ci++
		}
		cur = nd.kids[ci]
	}
	return cur
}

// count returns the number of entries with key in [lo, hi), or limit when
// there are at least that many: the walk stops there, so a query planner
// pays only up to its best candidate so far. A leaf wholly inside the
// range is counted without visiting its entries.
func (t *btree) count(lo, hi uint64, limit int) int {
	n := 0
	for cur := t.seek(lo); cur >= 0 && n < limit; {
		nd := &t.nodes[cur]
		if nd.n > 0 && nd.keys[0] >= lo && nd.keys[nd.n-1] < hi {
			n += int(nd.n)
			cur = nd.next
			continue
		}
		for i := 0; i < int(nd.n); i++ {
			if k := nd.keys[i]; k >= hi {
				return min(n, limit)
			} else if k >= lo {
				n++
			}
		}
		cur = nd.next
	}
	return min(n, limit)
}
