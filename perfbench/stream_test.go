package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// A stall on the only connection delays the sends behind it; their
// latency is counted from when they were due, not from when they went out.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			time.Sleep(stall)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	paths := []string{"/slow", "/fast", "/fast", "/fast"}
	interval := 10 * time.Millisecond
	outs := sendOpenLoop(context.Background(), srv.URL, paths, interval, 1)
	for i, o := range outs {
		if o.Err != nil || o.Status != http.StatusOK {
			t.Fatalf("request %d: status %d err %v", i, o.Status, o.Err)
		}
		if o.Due != time.Duration(i)*interval {
			t.Errorf("request %d due at %v", i, o.Due)
		}
		if o.late() < 0 || o.latency() < o.Done-o.Sent {
			t.Errorf("request %d: late %v latency %v service %v", i, o.late(), o.latency(), o.Done-o.Sent)
		}
	}
	// Request 1 was due at 10ms but could only go out after the 60ms stall.
	if got := outs[1].late(); got < stall-interval-5*time.Millisecond {
		t.Errorf("request 1 late by %v, want about %v", got, stall-interval)
	}
	if got := outs[1].latency(); got < stall-interval {
		t.Errorf("request 1 latency %v does not include the stall", got)
	}
}

func TestStreamIsSeededAndBalanced(t *testing.T) {
	blocks := 2 * len(storedPolicies) * 3 // two rounds of 18 benchmarks
	a, b := makeStream(7, blocks), makeStream(7, blocks)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, makeStream(8, blocks)) {
		t.Fatal("different seeds gave the same stream")
	}
	perBench := map[string]int{}
	last := -blockLen
	seen := map[string]bool{}
	for i, r := range a {
		switch r.Kind {
		case kindFresh:
			if i-last < blockLen-missSpan+1 {
				t.Errorf("misses at slots %d and %d are too close", last, i)
			}
			if seen[r.id()] {
				t.Errorf("fresh config %s issued twice", r.id())
			}
			if r.Insts <= storedInsts || r.Insts > storedInsts+freshSpan {
				t.Errorf("fresh budget %d out of range", r.Insts)
			}
			seen[r.id()] = true
			last = i
			perBench[r.Bench]++
		case kindRepeat:
			if !seen[r.id()] {
				t.Errorf("repeat of %s before its miss", r.id())
			}
		}
	}
	if len(perBench) != 18 {
		t.Fatalf("misses cover %d benchmarks", len(perBench))
	}
	for b, n := range perBench {
		if n != 2 {
			t.Errorf("benchmark %s missed %d times in two rounds", b, n)
		}
	}
}
