package main

import (
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro/internal/bench"
)

// The served request stream. Requests are sent open loop, one every
// slot, whatever the server's state: independent users do not wait for
// each other. The stream is cut into blocks of blockLen slots; each block
// holds exactly one fresh configuration (a miss that simulates, stores
// and ingests), placed away from the block edges so two misses are at
// least blockLen-missSpan+1 slots apart and never hold both admission slots of a
// two-core worker at once. Two slots per block repeat a fresh
// configuration missed at least two blocks earlier (a memory-layer hit);
// every other slot asks for one of the pre-stored configurations (a hit
// that reads the store on first touch and the memory layer after).
const (
	storedInsts = 25_000                 // budget of the pre-stored configurations
	slotRate    = 100                    // requests per second
	blockLen    = 32                     // slots per block, one miss each
	missLo      = 6                      // first slot a miss may take
	missSpan    = 13                     // misses fall in slots [missLo, missLo+missSpan)
	serveLimit  = 250 * time.Millisecond // about 3x the p99 of all requests
)

// freshSpan bounds the extra instructions of a fresh configuration: a few
// hundred distinct budgets just above storedInsts, so every miss costs
// about the same whatever the seed.
const freshSpan = 512

// storedPolicies are the policies of the pre-stored configurations and of
// the fresh ones: the paper's policy-evaluation set.
var storedPolicies = []string{"toggle1", "toggle2", "M", "P", "PI", "PID"}

type reqKind int

const (
	kindStored reqKind = iota // pre-stored configuration
	kindFresh                 // first request for a new configuration
	kindRepeat                // later request for a configuration missed earlier in the run
)

// request is one /run call of the stream.
type request struct {
	Bench, Policy string
	Insts         uint64
	Kind          reqKind
}

func (r request) id() string { return fmt.Sprintf("%s/%s/%d", r.Bench, r.Policy, r.Insts) }

func (r request) path() string {
	return fmt.Sprintf("/run?bench=%s&policy=%s&insts=%d", r.Bench, r.Policy, r.Insts)
}

// storedConfigs lists the configurations pre-stored in the served cache.
func storedConfigs() []request {
	var out []request
	for _, b := range bench.Names() {
		for _, p := range storedPolicies {
			out = append(out, request{Bench: b, Policy: p, Insts: storedInsts})
		}
	}
	return out
}

// blocksFor sizes a stream to fit d, in whole rounds: a round is one block
// per benchmark, so every seed misses on the same multiset of benchmarks
// and the simulation work is the same whatever the seed.
func blocksFor(d time.Duration) int {
	rounds := int(d.Seconds() * slotRate / blockLen / float64(len(bench.Names())))
	return max(rounds, 1) * len(bench.Names())
}

// makeStream builds the seeded request stream of the given number of
// blocks. The seed decides which stored configuration each hit asks for,
// the order of benchmarks within each round of misses, the pairing of
// benchmark and policy, the fresh budgets and the slot of each miss.
func makeStream(seed uint64, blocks int) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	stored := storedConfigs()
	names := bench.Names()
	used := map[uint64]bool{}
	var fresh []request
	var benchPerm, polPerm []int
	out := make([]request, 0, blocks*blockLen)
	for b := range blocks {
		j := b % len(names)
		if j == 0 {
			benchPerm = rng.Perm(len(names))
			polPerm = rng.Perm(len(names))
		}
		missAt := missLo + rng.IntN(missSpan)
		for s := range blockLen {
			switch {
			case s == missAt:
				insts := storedInsts + 1 + uint64(rng.IntN(freshSpan))
				for used[insts] {
					insts = storedInsts + 1 + uint64(rng.IntN(freshSpan))
				}
				used[insts] = true
				r := request{
					Bench:  names[benchPerm[j]],
					Policy: storedPolicies[polPerm[j]%len(storedPolicies)],
					Insts:  insts,
					Kind:   kindFresh,
				}
				fresh = append(fresh, r)
				out = append(out, r)
			case (s == 2 || s == blockLen-3) && len(fresh) > 2:
				r := fresh[rng.IntN(len(fresh)-2)]
				r.Kind = kindRepeat
				out = append(out, r)
			default:
				out = append(out, stored[rng.IntN(len(stored))])
			}
		}
	}
	return out
}

// outcome is one sent request. Times are offsets from the stream start.
type outcome struct {
	Due, Sent, Done time.Duration
	Status          int
	Body            []byte
	Err             error
}

// latency is measured from when the request was due, so a stall that
// delays later sends is charged to them too.
func (o outcome) latency() time.Duration { return o.Done - o.Due }

// late is how far behind schedule the sender was.
func (o outcome) late() time.Duration { return o.Sent - o.Due }

// sendOpenLoop sends paths[i] to base at offset i*interval from the
// start over at most conns connections, and returns the outcomes in
// stream order. When every connection is busy, the next send waits and
// is recorded as late.
func sendOpenLoop(ctx context.Context, base string, paths []string, interval time.Duration, conns int) []outcome {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}
	out := make([]outcome, len(paths))
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				o := &out[i]
				o.Sent = time.Since(start)
				o.Status, o.Body, o.Err = post(ctx, client, base+paths[i])
				o.Done = time.Since(start)
			}
		}()
	}
	for i := range paths {
		out[i].Due = time.Duration(i) * interval
		if d := out[i].Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		work <- i
	}
	close(work)
	wg.Wait()
	return out
}

func post(ctx context.Context, client *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}
