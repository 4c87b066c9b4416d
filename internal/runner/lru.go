package runner

// lruCache is the byte-capped in-memory layer of Cache: a plain
// map+intrusive-list LRU over encoded entries. Long-running workers sit
// in front of million-entry disk stores; without a cap the memory layer
// would eventually mirror the whole store and OOM the process. The cap
// is on payload bytes, not entry count, because result sizes vary with
// trace length. Not safe for concurrent use — Cache holds its mutex
// around every call.

import "container/list"

type lruEntry struct {
	key  string
	data []byte
}

type lruCache struct {
	capBytes int64 // negative = unlimited
	size     int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

func newLRUCache(capBytes int64) *lruCache {
	return &lruCache{
		capBytes: capBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// get returns the entry and marks it most recently used.
func (l *lruCache) get(key string) ([]byte, bool) {
	el, ok := l.items[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*lruEntry).data, true
}

// put inserts or replaces an entry and evicts least-recently-used
// entries until the cap holds, returning how many were evicted. An entry
// larger than the whole cap is still admitted alone — a cache that
// refuses the result it just computed would make every rerun a miss.
func (l *lruCache) put(key string, data []byte) (evicted int) {
	if el, ok := l.items[key]; ok {
		e := el.Value.(*lruEntry)
		l.size += int64(len(data)) - int64(len(e.data))
		e.data = data
		l.ll.MoveToFront(el)
	} else {
		l.items[key] = l.ll.PushFront(&lruEntry{key: key, data: data})
		l.size += int64(len(data))
	}
	if l.capBytes < 0 {
		return 0
	}
	for l.size > l.capBytes && l.ll.Len() > 1 {
		back := l.ll.Back()
		e := back.Value.(*lruEntry)
		l.ll.Remove(back)
		delete(l.items, e.key)
		l.size -= int64(len(e.data))
		evicted++
	}
	return evicted
}

func (l *lruCache) remove(key string) {
	el, ok := l.items[key]
	if !ok {
		return
	}
	l.ll.Remove(el)
	delete(l.items, key)
	l.size -= int64(len(el.Value.(*lruEntry).data))
}

func (l *lruCache) len() int { return l.ll.Len() }
