// Command loadgen is a closed-loop load generator for cmd/serve: a fixed
// worker pool (optionally paced to a target RPS) drives mixed /run + /batch
// traffic for a fixed duration and reports p50/p95/p99 latency, the shed
// rate, and per-class response counts — so overload behavior (429 shedding,
// deadline enforcement, graceful degradation under -chaos) is measurable
// and regression-checkable.
//
//	loadgen -url http://localhost:8721 -duration 10s -concurrency 16
//	loadgen -url http://h1:8721,http://h2:8721      # round-robin over a fleet
//	loadgen -rps 200 -batch-frac 0.02 -json report.json
//	loadgen -duration 5s -check        # CI gate: non-zero exit on bad responses
//
// -url accepts a comma-separated target list: requests round-robin across
// the targets, so the generator can drive either a cluster coordinator or
// the raw worker fleet behind it, and the report breaks request and shed
// counts out per target.
//
// With -check, loadgen exits 1 if any response is neither 2xx nor 429, any
// request fails at the transport layer, or every single request was shed
// (shed rate 100% means the server admitted nothing — the admission path is
// misconfigured, not protecting itself).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
)

type sample struct {
	endpoint string
	target   int // index into the -url target list
	status   int // 0 = transport error
	latency  time.Duration
	err      error
}

// LatencyMs summarizes one sample class in milliseconds.
type LatencyMs struct {
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

func latencySummary(samples []time.Duration) LatencyMs {
	qs := serving.Quantiles(samples, 0.5, 0.95, 0.99, 1)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencyMs{P50: ms(qs[0]), P95: ms(qs[1]), P99: ms(qs[2]), Max: ms(qs[3])}
}

// TargetReport is one -url target's share of the traffic.
type TargetReport struct {
	URL      string  `json:"url"`
	Requests int     `json:"requests"`
	OK       int     `json:"ok_2xx"`
	Shed     int     `json:"shed_429"`
	Errors   int     `json:"errors"` // non-429 4xx, 5xx and transport
	ShedRate float64 `json:"shed_rate"`
}

// Report is the JSON output of one loadgen run.
type Report struct {
	URL         string  `json:"url"`
	Duration    float64 `json:"duration_seconds"`
	Concurrency int     `json:"concurrency"`
	TargetRPS   float64 `json:"target_rps"`
	BatchFrac   float64 `json:"batch_frac"`

	Requests    int     `json:"requests"`
	OK          int     `json:"ok_2xx"`
	Shed        int     `json:"shed_429"`
	ClientErr   int     `json:"client_errors_4xx"`
	ServerErr   int     `json:"server_errors_5xx"`
	NetErr      int     `json:"transport_errors"`
	AchievedRPS float64 `json:"achieved_rps"`
	ShedRate    float64 `json:"shed_rate"`

	OKLatency   LatencyMs `json:"ok_latency_ms"`
	ShedLatency LatencyMs `json:"shed_latency_ms"`

	Targets []TargetReport `json:"targets"`

	CheckFailures []string `json:"check_failures,omitempty"`
}

func main() {
	var (
		url         = flag.String("url", "http://localhost:8721", "serve base URL, or a comma-separated list to round-robin across")
		duration    = flag.Duration("duration", 10*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 8, "worker connections (closed loop)")
		rps         = flag.Float64("rps", 0, "target offered request rate (0 = as fast as the loop allows)")
		batchFrac   = flag.Float64("batch-frac", 0, "fraction of requests sent to /batch (the -bench grid under none and -policy) instead of /run")
		insts       = flag.Uint64("insts", 200_000, "insts parameter for /run and /batch requests")
		benchName   = flag.String("bench", "gcc", "bench parameter for /run and /batch requests")
		policy      = flag.String("policy", "PI", "policy parameter for /run and /batch requests")
		reqTimeout  = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		jsonOut     = flag.String("json", "", "write the JSON report to this path (\"-\" = stdout)")
		check       = flag.Bool("check", false, "exit 1 on any non-2xx/429 response, transport error, or 100% shed rate")
		maxShedP99  = flag.Duration("max-shed-p99", 0, "with -check: also fail if p99 shed (429) latency exceeds this (0 = no bound)")
		seed        = flag.Int64("seed", 1, "traffic-mix RNG seed")
	)
	flag.Parse()

	if *concurrency < 1 {
		fmt.Fprintln(os.Stderr, "loadgen: -concurrency must be >= 1")
		os.Exit(2)
	}
	targets, err := parseTargets(*url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(2)
	}
	client := &http.Client{Timeout: *reqTimeout}
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	// Pacing: with -rps, a token ticker feeds the workers (still closed
	// loop — a token is only consumed by a free worker, so a saturated
	// server sees at most `concurrency` requests in flight).
	var tokens chan struct{}
	if *rps > 0 {
		tokens = make(chan struct{}, *concurrency)
		interval := time.Duration(float64(time.Second) / *rps)
		if interval <= 0 {
			interval = time.Microsecond
		}
		go func() {
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					select {
					case tokens <- struct{}{}:
					default: // workers saturated: drop the tick
					}
				}
			}
		}()
	}

	runURLs := make([]string, len(targets))
	batchURLs := make([]string, len(targets))
	for i, t := range targets {
		runURLs[i] = fmt.Sprintf("%s/run?bench=%s&policy=%s&insts=%d", t, *benchName, *policy, *insts)
		batchURLs[i] = fmt.Sprintf("%s/batch?benches=%s&policies=none,%s&insts=%d", t, *benchName, *policy, *insts)
	}

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []sample
		next    atomic.Uint64 // round-robin cursor over targets
	)
	start := time.Now()
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(id)))
			var local []sample
			for ctx.Err() == nil {
				if tokens != nil {
					select {
					case <-ctx.Done():
					case <-tokens:
					}
					if ctx.Err() != nil {
						break
					}
				}
				ti := int((next.Add(1) - 1) % uint64(len(targets)))
				target, endpoint := runURLs[ti], "/run"
				if *batchFrac > 0 && rng.Float64() < *batchFrac {
					target, endpoint = batchURLs[ti], "/batch"
				}
				local = append(local, fire(client, target, ti, endpoint))
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := build(samples, targets, elapsed, *concurrency, *rps, *batchFrac)
	if *check {
		rep.CheckFailures = checkReport(rep, *maxShedP99)
	}
	printHuman(os.Stderr, rep)
	if *jsonOut != "" {
		var w io.Writer = os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				os.Exit(2)
			}
			defer f.Close()
			w = f
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(2)
		}
	}
	if len(rep.CheckFailures) > 0 {
		for _, f := range rep.CheckFailures {
			fmt.Fprintln(os.Stderr, "loadgen: CHECK FAILED:", f)
		}
		os.Exit(1)
	}
}

// parseTargets splits the -url flag into base URLs (trailing slashes
// trimmed so path joining works).
func parseTargets(urls string) ([]string, error) {
	var targets []string
	for _, t := range strings.Split(urls, ",") {
		t = strings.TrimRight(strings.TrimSpace(t), "/")
		if t == "" {
			return nil, errors.New("-url has an empty target")
		}
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		return nil, errors.New("-url names no targets")
	}
	return targets, nil
}

// fire issues one request and classifies the outcome. The request is
// deliberately not bound to the load-window context: an in-flight request
// at window end is allowed to finish (the closed loop drains naturally,
// bounded by the client timeout).
func fire(client *http.Client, target string, targetIdx int, endpoint string) sample {
	start := time.Now()
	resp, err := client.Get(target)
	s := sample{endpoint: endpoint, target: targetIdx, latency: time.Since(start)}
	if err != nil {
		s.err = err
		return s
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	s.status = resp.StatusCode
	return s
}

func build(samples []sample, targets []string, elapsed time.Duration, concurrency int, rps, batchFrac float64) Report {
	rep := Report{
		URL:         strings.Join(targets, ","),
		Duration:    elapsed.Seconds(),
		Concurrency: concurrency,
		TargetRPS:   rps,
		BatchFrac:   batchFrac,
		Requests:    len(samples),
		Targets:     make([]TargetReport, len(targets)),
	}
	for i, t := range targets {
		rep.Targets[i].URL = t
	}
	var okLat, shedLat []time.Duration
	for _, s := range samples {
		var tr *TargetReport
		if s.target >= 0 && s.target < len(rep.Targets) {
			tr = &rep.Targets[s.target]
			tr.Requests++
		}
		switch {
		case s.err != nil:
			rep.NetErr++
			if tr != nil {
				tr.Errors++
			}
		case s.status >= 200 && s.status < 300:
			rep.OK++
			okLat = append(okLat, s.latency)
			if tr != nil {
				tr.OK++
			}
		case s.status == http.StatusTooManyRequests:
			rep.Shed++
			shedLat = append(shedLat, s.latency)
			if tr != nil {
				tr.Shed++
			}
		case s.status >= 500:
			rep.ServerErr++
			if tr != nil {
				tr.Errors++
			}
		default:
			rep.ClientErr++
			if tr != nil {
				tr.Errors++
			}
		}
	}
	for i := range rep.Targets {
		if rep.Targets[i].Requests > 0 {
			rep.Targets[i].ShedRate = float64(rep.Targets[i].Shed) / float64(rep.Targets[i].Requests)
		}
	}
	if elapsed > 0 {
		rep.AchievedRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	rep.OKLatency = latencySummary(okLat)
	rep.ShedLatency = latencySummary(shedLat)
	return rep
}

// checkReport returns the CI-gate violations in rep. maxShedP99 > 0 also
// bounds how slowly the server is allowed to say no.
func checkReport(rep Report, maxShedP99 time.Duration) []string {
	var fails []string
	if rep.Requests == 0 {
		fails = append(fails, "no requests completed")
	}
	if rep.NetErr > 0 {
		fails = append(fails, fmt.Sprintf("%d transport errors", rep.NetErr))
	}
	if rep.ClientErr > 0 {
		fails = append(fails, fmt.Sprintf("%d non-429 4xx responses", rep.ClientErr))
	}
	if rep.ServerErr > 0 {
		fails = append(fails, fmt.Sprintf("%d 5xx responses", rep.ServerErr))
	}
	if rep.Requests > 0 && rep.Shed == rep.Requests {
		fails = append(fails, "shed rate 100%: nothing was admitted")
	}
	if maxShedP99 > 0 && rep.Shed > 0 {
		limitMs := float64(maxShedP99) / float64(time.Millisecond)
		if rep.ShedLatency.P99 > limitMs {
			fails = append(fails, fmt.Sprintf("p99 shed latency %.2fms exceeds %.2fms", rep.ShedLatency.P99, limitMs))
		}
	}
	return fails
}

func printHuman(w io.Writer, rep Report) {
	fmt.Fprintf(w, "loadgen: %s for %.1fs, %d workers, target %.0f rps (batch frac %.2f)\n",
		rep.URL, rep.Duration, rep.Concurrency, rep.TargetRPS, rep.BatchFrac)
	fmt.Fprintf(w, "  requests %d (%.1f rps achieved): 2xx %d, 429 %d (shed rate %.1f%%), 4xx %d, 5xx %d, net %d\n",
		rep.Requests, rep.AchievedRPS, rep.OK, rep.Shed, 100*rep.ShedRate, rep.ClientErr, rep.ServerErr, rep.NetErr)
	fmt.Fprintf(w, "  ok latency ms: p50 %.1f p95 %.1f p99 %.1f max %.1f\n",
		rep.OKLatency.P50, rep.OKLatency.P95, rep.OKLatency.P99, rep.OKLatency.Max)
	if rep.Shed > 0 {
		fmt.Fprintf(w, "  shed latency ms: p50 %.2f p95 %.2f p99 %.2f max %.2f\n",
			rep.ShedLatency.P50, rep.ShedLatency.P95, rep.ShedLatency.P99, rep.ShedLatency.Max)
	}
	if len(rep.Targets) > 1 {
		for _, t := range rep.Targets {
			fmt.Fprintf(w, "  target %s: requests %d, 2xx %d, 429 %d (shed rate %.1f%%), errors %d\n",
				t.URL, t.Requests, t.OK, t.Shed, 100*t.ShedRate, t.Errors)
		}
	}
}
