package runindex

// Query execution: composite filters over the catalog. One filter drives
// the scan — the first set numeric range walks its B+-tree leaf chain,
// a bench/policy equality walks the interned-string tree — and the
// remaining filters are verified per candidate record, so a query costs
// O(selectivity of the driving filter), not O(catalog). FullScan is the
// deliberate no-index baseline BenchmarkRunIndex's T5 compares T2 against.

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

// matchRest checks every filter except the one driving the scan.
func (q *Query) matchRest(rec *Record, driver int) bool {
	if q.Bench != "" && driver != driverBench && rec.Bench != q.Bench {
		return false
	}
	if q.Policy != "" && driver != driverPolicy && rec.Policy != q.Policy {
		return false
	}
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

// driver picks the scan strategy: the first set numeric range, else a
// string equality, else a full scan.
func (q *Query) driver() int {
	for d := Dim(0); d < NumDims; d++ {
		if q.Dims[d].Set {
			return int(d)
		}
	}
	if q.Bench != "" {
		return driverBench
	}
	if q.Policy != "" {
		return driverPolicy
	}
	return driverNone
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
	rows := 0
	emit := func(id int32, driver int) bool {
		rec := &c.recs[id]
		if !q.matchRest(rec, driver) {
			return true
		}
		rows++
		if !visit(rec) || rows >= limit {
			return false
		}
		return true
	}
	switch drv := q.driver(); drv {
	case driverNone:
		for id := range c.recs {
			if !emit(int32(id), drv) {
				break
			}
		}
	case driverBench, driverPolicy:
		tree, table, name := c.benchTree, c.benchIDs, q.Bench
		if drv == driverPolicy {
			tree, table, name = c.policyTree, c.policyIDs, q.Policy
		}
		sid, ok := table[name]
		if !ok {
			return 0
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
		if !q.matchRest(rec, driverNone) {
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
