package runindex

// Query execution: composite filters over the catalog. One filter drives
// the scan — a numeric range walks its B+-tree leaf chain, a bench/policy
// equality walks the interned-string tree — and the remaining filters are
// verified per candidate record. The planner drives by the filter with the
// fewest estimated rows, so a query costs O(selectivity of its most
// selective filter), not O(catalog). FullScan is the deliberate no-index
// baseline BenchmarkRunIndex's T5 compares T2 against.

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
)

// RangeFilter is one dimension's half-open constraint [Lo, Hi).
type RangeFilter struct {
	Lo, Hi float64
	Set    bool
}

func (f RangeFilter) match(v float64) bool {
	return !f.Set || (v >= f.Lo && v < f.Hi)
}

// Query is one composite catalog question. Zero-valued fields do not
// constrain; Limit == 0 means DefaultLimit.
type Query struct {
	Bench  string
	Policy string
	Dims   [NumDims]RangeFilter
	Limit  int
}

// DefaultLimit bounds a query's result rows unless the caller asks for
// more; it keeps an accidental full-catalog /query from streaming
// millions of rows.
const DefaultLimit = 10000

// ParseQuery builds a Query from URL parameters. Numeric dimensions
// accept "lo:hi" for the half-open range [lo,hi) or a single value for a
// point match; bench= and policy= are string equalities; limit= bounds
// the row count.
func ParseQuery(values url.Values) (Query, error) {
	var q Query
	q.Bench = values.Get("bench")
	q.Policy = values.Get("policy")
	if v := values.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return q, fmt.Errorf("runindex: bad limit %q", v)
		}
		q.Limit = n
	}
	for d := Dim(0); d < NumDims; d++ {
		v := values.Get(d.String())
		if v == "" {
			continue
		}
		f, err := parseRange(v)
		if err != nil {
			return q, fmt.Errorf("runindex: bad %s: %w", d, err)
		}
		q.Dims[d] = f
	}
	return q, nil
}

func parseRange(s string) (RangeFilter, error) {
	if lo, hi, ok := strings.Cut(s, ":"); ok {
		l, err := parseBound(lo)
		if err != nil {
			return RangeFilter{}, err
		}
		h, err := parseBound(hi)
		if err != nil {
			return RangeFilter{}, err
		}
		if h < l {
			return RangeFilter{}, fmt.Errorf("inverted range %q", s)
		}
		return RangeFilter{Lo: l, Hi: h, Set: true}, nil
	}
	v, err := parseBound(s)
	if err != nil {
		return RangeFilter{}, err
	}
	// A point match is the narrowest half-open range containing v.
	return RangeFilter{Lo: v, Hi: math.Nextafter(v, math.Inf(1)), Set: true}, nil
}

// parseBound parses one range bound. NaN is rejected: it compares false
// with everything, so a NaN range would slip past the inverted-range check
// and silently match nothing.
func parseBound(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(v) {
		err = fmt.Errorf("NaN bound %q", s)
	}
	return v, err
}

// matches checks every filter against rec, comparing its strings.
func (q *Query) matches(rec *Record) bool {
	return (q.Bench == "" || rec.Bench == q.Bench) &&
		(q.Policy == "" || rec.Policy == q.Policy) && q.matchDims(rec, driverNone)
}

// matchDims checks every numeric range except the one driving the scan.
func (q *Query) matchDims(rec *Record, driver int) bool {
	for d := Dim(0); d < NumDims; d++ {
		if int(d) == driver {
			continue
		}
		if !q.Dims[d].match(rec.DimValue(d)) {
			return false
		}
	}
	return true
}

const (
	driverNone   = -1
	driverBench  = -2
	driverPolicy = -3
)

// resolve maps q's bench/policy equalities to interned ids (0 where q
// sets none). ok is false when q names a string never ingested, which
// matches nothing.
func (c *Catalog) resolve(q *Query) (want sidPair, ok bool) {
	if q.Bench != "" {
		sid, found := c.benchIDs[q.Bench]
		if !found {
			return want, false
		}
		want.bench = uint32(sid)
	}
	if q.Policy != "" {
		sid, found := c.policyIDs[q.Policy]
		if !found {
			return want, false
		}
		want.policy = uint32(sid)
	}
	return want, true
}

// driver picks the scan strategy by estimated rows: the entries each set
// filter covers in its B+-tree (a bench/policy equality's posting
// length, a numeric range's span), counted only up to the best candidate
// so far. A full scan, the fallback, costs the whole catalog; ties keep
// the earlier candidate. The caller holds c.mu.
func (c *Catalog) driver(q *Query, want sidPair) int {
	best, bestN := driverNone, len(c.recs)
	consider := func(drv int, t *btree, lo, hi uint64) {
		if rows := t.count(lo, hi, bestN); rows < bestN {
			best, bestN = drv, rows
		}
	}
	if b := uint64(want.bench); b != 0 {
		consider(driverBench, c.benchTree, b, b+1)
	}
	if p := uint64(want.policy); p != 0 {
		consider(driverPolicy, c.policyTree, p, p+1)
	}
	for d := Dim(0); d < NumDims; d++ {
		if f := q.Dims[d]; f.Set {
			consider(int(d), c.trees[d], keyBits(f.Lo), keyBits(f.Hi))
		}
	}
	return best
}

// Execute runs q and calls visit for every matching record in scan
// order; visit returning false stops early. Returns the number of rows
// visited. The visitor borrows the record — copy it to retain it.
func (c *Catalog) Execute(q *Query, visit func(rec *Record) bool) int {
	if c == nil {
		return 0
	}
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if m := c.opts.Metrics; m != nil {
		m.Queries.Inc()
	}
	// The equalities are checked on the interned-id column, where an id
	// of 0 matches any record.
	want, ok := c.resolve(q)
	if !ok {
		return 0
	}
	rows := 0
	emit := func(id int32, driver int) bool {
		if s := c.sids[id]; (want.bench != 0 && s.bench != want.bench) ||
			(want.policy != 0 && s.policy != want.policy) {
			return true
		}
		rec := &c.recs[id]
		if !q.matchDims(rec, driver) {
			return true
		}
		rows++
		if !visit(rec) || rows >= limit {
			return false
		}
		return true
	}
	switch drv := c.driver(q, want); drv {
	case driverNone:
		for id := range c.recs {
			if !emit(int32(id), drv) {
				break
			}
		}
	case driverBench, driverPolicy:
		tree, sid := c.benchTree, uint64(want.bench)
		if drv == driverPolicy {
			tree, sid = c.policyTree, uint64(want.policy)
		}
		tree.ascend(sid, sid+1, func(_ uint64, id int32) bool {
			return emit(id, drv)
		})
	default:
		f := q.Dims[drv]
		if m := c.opts.Metrics; m != nil {
			m.RangeScans.Inc()
		}
		c.trees[drv].ascend(keyBits(f.Lo), keyBits(f.Hi), func(_ uint64, id int32) bool {
			return emit(id, drv)
		})
	}
	return rows
}

// FullScan answers q by testing every record with no index help — the
// baseline BenchmarkRunIndex's T5 measures range scans against.
func (c *Catalog) FullScan(q *Query, visit func(rec *Record) bool) int {
	if c == nil {
		return 0
	}
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	rows := 0
	for id := range c.recs {
		rec := &c.recs[id]
		if !q.matches(rec) {
			continue
		}
		rows++
		if !visit(rec) || rows >= limit {
			break
		}
	}
	return rows
}

// QueryResponse is the JSON body /query emits — shared by cmd/serve
// workers and the cluster coordinator's merged fan-out.
type QueryResponse struct {
	Count   int      `json:"count"`
	Records int      `json:"records"` // catalog size behind the answer
	Workers int      `json:"workers,omitempty"`
	Rows    []Record `json:"rows"`
}

// Run executes q and collects the rows into a QueryResponse.
func (c *Catalog) Run(q *Query) QueryResponse {
	resp := QueryResponse{Rows: []Record{}}
	c.Execute(q, func(rec *Record) bool {
		resp.Rows = append(resp.Rows, *rec)
		return true
	})
	resp.Count = len(resp.Rows)
	resp.Records = c.Len()
	return resp
}
