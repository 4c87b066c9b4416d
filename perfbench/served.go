package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// canonicalBody strips the per-request fields (request_id, cached) from a
// /run body and re-encodes the rest with sorted keys, so two answers for
// one configuration compare byte for byte. It also returns the cached
// flag and the simulated cycle count.
func canonicalBody(body []byte) (canon string, cached bool, cycles uint64, err error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return "", false, 0, err
	}
	cached, _ = m["cached"].(bool)
	if c, ok := m["cycles"].(float64); ok {
		cycles = uint64(c)
	}
	delete(m, "request_id")
	delete(m, "cached")
	out, err := json.Marshal(m)
	return string(out), cached, cycles, err
}

// ensurePristine returns the directory of the pre-populated store (cache/
// plus expected.json, the canonical body of every stored configuration).
// It is built once per serve binary by serving every stored configuration
// through it, and copied afresh for every launch, so every run starts cold
// on identical bytes. Keying it on the binary means two builds measured in
// one checkout never share a store: each writes, reads and is checked
// against its own.
func ensurePristine(e *env) (string, map[string]string, error) {
	sum, err := fileDigest(e.cmd("serve"))
	if err != nil {
		return "", nil, err
	}
	dir := filepath.Join(e.work, fmt.Sprintf("pristine-%d-%.16s", storedInsts, sum))
	if data, err := os.ReadFile(filepath.Join(dir, "expected.json")); err == nil {
		var exp map[string]string
		if err := json.Unmarshal(data, &exp); err != nil {
			return "", nil, err
		}
		return dir, exp, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", nil, err
	}
	if err := os.MkdirAll(filepath.Join(tmp, "cache"), 0o755); err != nil {
		return "", nil, err
	}
	s, err := startServer(e.cmd("serve"), "-cache-dir", filepath.Join(tmp, "cache"))
	if err != nil {
		return "", nil, err
	}
	defer s.stop()
	if err := s.waitReady(time.Now(), 30*time.Second); err != nil {
		return "", nil, err
	}
	cfgs := storedConfigs()
	exp := make(map[string]string, len(cfgs))
	var mu sync.Mutex
	var firstErr error
	work := make(chan request)
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 60 * time.Second}
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				status, body, err := post(context.Background(), client, s.url+r.path())
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %s", status, body)
				}
				var canon string
				if err == nil {
					canon, _, _, err = canonicalBody(body)
				}
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("populating %s: %w", r.id(), err)
				}
				exp[r.id()] = canon
				mu.Unlock()
			}
		}()
	}
	for _, r := range cfgs {
		work <- r
	}
	close(work)
	wg.Wait()
	s.stop()
	if firstErr != nil {
		return "", nil, firstErr
	}
	data, err := json.Marshal(exp)
	if err != nil {
		return "", nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "expected.json"), data, 0o644); err != nil {
		return "", nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, err
	}
	return dir, exp, os.Rename(tmp, dir)
}

// fileDigest is the SHA-256 of a file, streamed rather than read whole:
// on Linux a child's ru_maxrss starts from the harness's own high-water
// mark at exec, so a large buffer here would inflate peak_rss_mib.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// expectedDigest digests the stored bodies in key order.
func expectedDigest(exp map[string]string) string {
	keys := make([]string, 0, len(exp))
	for k := range exp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%s\n", k, exp[k])
	}
	return digest(b.Bytes())
}

// fleet is the set of serve processes one run talks to: one worker, or
// two workers behind a coordinator.
type fleet struct {
	workers []*server
	coord   *server
}

// front is the URL the stream is sent to.
func (f *fleet) front() string {
	if f.coord != nil {
		return f.coord.url
	}
	return f.workers[0].url
}

// stop stops every process and returns the largest worker peak RSS and
// the CPU time of every process of the fleet.
func (f *fleet) stop() (peakMiB float64, cpu time.Duration) {
	if f.coord != nil {
		_, cpu = f.coord.stop()
	}
	for _, w := range f.workers {
		rss, c := w.stop()
		peakMiB = max(peakMiB, rss)
		cpu += c
	}
	return peakMiB, cpu
}

// launchFleet copies the pristine store once per worker, then starts the
// fleet and returns it once every process answers /healthz.
func launchFleet(e *env, pristine, dir string, cluster bool) (*fleet, error) {
	n := 1
	if cluster {
		n = 2
	}
	var dirs []string
	for i := range n {
		d := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		if err := copyDir(filepath.Join(pristine, "cache"), d); err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	f := &fleet{}
	start := time.Now()
	var urls []string
	for _, d := range dirs {
		s, err := startServer(e.cmd("serve"), "-cache-dir", d)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, s)
		urls = append(urls, s.url)
	}
	for _, s := range f.workers {
		if err := s.waitReady(start, 30*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	if cluster {
		s, err := startServer(e.cmd("serve"), "-coordinator", "-workers", strings.Join(urls, ","))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.coord = s
		if err := s.waitReady(start, 30*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// scrape reads a Prometheus-text /metrics page into name -> value,
// skipping histogram buckets.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// scrapeAll reads /metrics of every worker (summed) and the coordinator.
func (f *fleet) scrapeAll() (workers, coord map[string]float64, err error) {
	workers = map[string]float64{}
	for _, w := range f.workers {
		m, err := scrape(w.url)
		if err != nil {
			return nil, nil, err
		}
		for k, v := range m {
			workers[k] += v
		}
	}
	if f.coord != nil {
		if coord, err = scrape(f.coord.url); err != nil {
			return nil, nil, err
		}
	}
	return workers, coord, nil
}

// servedRun is everything one served stream measured.
type servedRun struct {
	setups     []float64 // CPU seconds of a fleet that starts, answers /healthz and stops
	outs       []outcome
	reqs       []request
	rssMiB     float64
	fleetCPU   time.Duration      // CPU time of every process that served the stream
	wDelta     map[string]float64 // worker /metrics after minus before
	cDelta     map[string]float64 // coordinator /metrics after minus before
	attempted  int
	failed     int
	within     int
	mismatches int
	hitLat     []float64 // ms, answered from the store or memory layer
	missLat    []float64 // ms, simulated
	allLat     []float64 // ms
	lateMs     []float64
	// freshCycles is the simulated cycles of the stream's fresh
	// configurations, the misses it plans: it does not grow when a
	// planned hit is simulated instead.
	freshCycles uint64
	wrongClass  int // answers whose cached flag contradicts the plan
}

// serveStream launches the fleet `launches` times on fresh copies of the
// pristine store, sends reqs open loop to the last launch, checks every
// body and stops the fleet. Every earlier launch is stopped as soon as it
// is ready, and its CPU time is a set-up sample.
func serveStream(e *env, cluster bool, reqs []request, launches int) (*servedRun, error) {
	ref, err := loadRefs(e)
	if err != nil {
		return nil, err
	}
	pristine, expected, err := ensurePristine(e)
	if err != nil {
		return nil, err
	}
	sr := &servedRun{reqs: reqs}
	if got := expectedDigest(expected); got != ref.Serve.SHA256 {
		// The freshly built store answers the stored configurations
		// differently from the reference: count it as a failed operation.
		logf("served: pre-stored bodies digest %s does not match refs.json %s", got, ref.Serve.SHA256)
		sr.attempted++
		sr.failed++
	}
	runDir := filepath.Join(e.work, fmt.Sprintf("run-%s-%d", e.workload, os.Getpid()))
	defer os.RemoveAll(runDir)

	var f *fleet
	for i := range launches {
		fl, err := launchFleet(e, pristine, filepath.Join(runDir, strconv.Itoa(i)), cluster)
		if err != nil {
			return nil, err
		}
		if i == launches-1 {
			f = fl
			break
		}
		_, cpu := fl.stop()
		sr.setups = append(sr.setups, cpu.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()

	before, cBefore, err := f.scrapeAll()
	if err != nil {
		return nil, err
	}
	paths := make([]string, len(reqs))
	for i, r := range reqs {
		paths[i] = r.path()
	}
	sr.outs = sendOpenLoop(context.Background(), f.front(), paths, time.Second/slotRate, runtime.NumCPU())
	after, cAfter, err := f.scrapeAll()
	if err != nil {
		return nil, err
	}
	sr.rssMiB, sr.fleetCPU = f.stop()
	stopped = true
	sr.wDelta = diff(after, before)
	sr.cDelta = diff(cAfter, cBefore)
	sr.evaluate(expected)
	return sr, writeOutcomes(e, sr, map[bool]string{false: "serve", true: "cluster"}[cluster])
}

// writeOutcomes records every request of the stream — what was asked,
// when it was due, sent and answered — so a run can be explained later.
func writeOutcomes(e *env, sr *servedRun, fleetName string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i, o := range sr.outs {
		r := sr.reqs[i]
		_, cached, _, _ := canonicalBody(o.Body)
		rec := struct {
			Config string  `json:"config"`
			Kind   reqKind `json:"kind"`
			DueUs  int64   `json:"due_us"`
			SentUs int64   `json:"sent_us"`
			DoneUs int64   `json:"done_us"`
			Status int     `json:"status"`
			Cached bool    `json:"cached"`
		}{r.id(), r.Kind, o.Due.Microseconds(), o.Sent.Microseconds(), o.Done.Microseconds(), o.Status, cached}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	name := fmt.Sprintf("requests-%s-%s-%d.jsonl", e.workload, fleetName, e.seed)
	return os.WriteFile(filepath.Join(e.work, name), b.Bytes(), 0o644)
}

func diff(after, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// evaluate checks every answer and sorts its latency into hit or miss.
// A stored configuration must answer its pre-stored body; any other must
// answer the body it first answered in this run. A fresh configuration
// must be simulated and every other answered from the store or memory
// layer. Errors, non-2xx statuses, sheds, mismatched bodies and answers
// of the wrong class are failed operations.
func (sr *servedRun) evaluate(expected map[string]string) {
	first := map[string]string{}
	for id, body := range expected {
		first[id] = body
	}
	for i, o := range sr.outs {
		r := sr.reqs[i]
		sr.attempted++
		lat := float64(o.latency()) / 1e6
		sr.allLat = append(sr.allLat, lat)
		sr.lateMs = append(sr.lateMs, float64(o.late())/1e6)
		ok := o.Err == nil && o.Status == http.StatusOK
		var cached bool
		var cycles uint64
		if ok {
			var canon string
			var err error
			canon, cached, cycles, err = canonicalBody(o.Body)
			switch want, seen := first[r.id()]; {
			case err != nil:
				ok = false
			case !seen:
				first[r.id()] = canon
			case canon != want:
				ok = false
				sr.mismatches++
			}
			if ok && cached == (r.Kind == kindFresh) {
				ok = false
				sr.wrongClass++
			}
		}
		if !ok {
			sr.failed++
			if sr.failed <= 3 {
				logf("served: failed %s: status=%d err=%v body=%.200s", r.id(), o.Status, o.Err, o.Body)
			}
			continue
		}
		if lat <= float64(serveLimit)/1e6 {
			sr.within++
		}
		if cached {
			sr.hitLat = append(sr.hitLat, lat)
			continue
		}
		sr.missLat = append(sr.missLat, lat)
		sr.freshCycles += cycles
	}
}

func runServed(e *env) (*result, error) {
	reqs := makeStream(e.seed, blocksFor(e.seconds))
	sr, err := serveStream(e, false, reqs, serveSetupReps+1)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Attempted: sr.attempted, Failed: sr.failed}
	tl, pct := tail(sr.allLat)
	logf("%s: %d requests (%d hits p50 %.3fms, %d misses p50 %.1fms), tail p%v %.2fms, late p50 %.3fms, %d failed, %d mismatched, %d of the wrong class",
		e.workload, sr.attempted, len(sr.hitLat), median(sr.hitLat), len(sr.missLat), median(sr.missLat),
		pct, tl, median(sr.lateMs), sr.failed, sr.mismatches, sr.wrongClass)
	res.set("setup_s", median(sr.setups), "s")
	res.set("ns_per_cfg_cycle", float64(sr.fleetCPU.Nanoseconds())/float64(sr.freshCycles), "ns")
	res.set("peak_rss_mib", sr.rssMiB, "MiB")
	res.set("slo_frac", float64(sr.within)/float64(sr.attempted), "ratio")
	return res, nil
}
