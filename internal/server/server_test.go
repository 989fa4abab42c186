package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/obs"
)

func newDesign(t *testing.T, seed int64) *xtalksta.Design {
	t.Helper()
	d, err := xtalksta.Generate(circuitgen.Params{
		Seed: seed, Cells: 120, DFFs: 10, Depth: 6, ClockFanout: 4,
	}, xtalksta.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func newTestServer(t *testing.T, cfg Config) (*Server, *xtalksta.Design) {
	t.Helper()
	s := New(cfg)
	d := newDesign(t, 41)
	if err := s.Register("d1", "test design", d); err != nil {
		t.Fatal(err)
	}
	return s, d
}

// do runs one request against the handler and returns status, body and
// headers.
func do(t *testing.T, h http.Handler, method, path string, body any) (int, []byte, http.Header) {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code, rr.Body.Bytes(), rr.Result().Header
}

func TestEndpointsBasic(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()

	code, body, _ := do(t, h, "GET", "/v1/designs", nil)
	if code != 200 || !strings.Contains(string(body), `"id":"d1"`) {
		t.Fatalf("list: code %d body %s", code, body)
	}

	code, body, _ = do(t, h, "GET", "/v1/designs/d1?pairs=4", nil)
	if code != 200 || !strings.Contains(string(body), `"coupled_pairs"`) {
		t.Fatalf("get design: code %d body %s", code, body)
	}
	var info struct {
		Cells        int `json:"cells"`
		CoupledPairs []struct {
			A string  `json:"a"`
			B string  `json:"b"`
			C float64 `json:"c_farads"`
		} `json:"coupled_pairs"`
	}
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Cells == 0 || len(info.CoupledPairs) == 0 {
		t.Fatalf("design detail incomplete: %s", body)
	}

	code, body, _ = do(t, h, "POST", "/v1/designs/d1/analyze",
		map[string]any{"mode": "iterative"})
	if code != 200 {
		t.Fatalf("analyze: code %d body %s", code, body)
	}
	var ar analyzeResp
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.LongestPathNs <= 0 || ar.Passes < 1 || ar.EndpointNet == "" {
		t.Fatalf("analyze response incomplete: %s", body)
	}

	// Corner query goes through the single-corner path.
	code, body, _ = do(t, h, "POST", "/v1/designs/d1/analyze",
		map[string]any{"mode": "best", "corner": "SS"})
	if code != 200 {
		t.Fatalf("corner analyze: code %d body %s", code, body)
	}

	// Attribution renderers over HTTP, both formats.
	code, body, hdr := do(t, h, "GET", "/v1/designs/d1/paths?topk=3", nil)
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "text/plain") || len(body) == 0 {
		t.Fatalf("paths text: code %d ct %q", code, hdr.Get("Content-Type"))
	}
	code, body, hdr = do(t, h, "GET", "/v1/designs/d1/paths?topk=3&format=json", nil)
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") || !json.Valid(body) {
		t.Fatalf("paths json: code %d ct %q body %s", code, hdr.Get("Content-Type"), body)
	}

	// The introspection plane is mounted on the same mux.
	code, body, _ = do(t, h, "GET", "/metrics", nil)
	if code != 200 || !strings.Contains(string(body), "server_requests_total") {
		t.Fatalf("/metrics: code %d", code)
	}
	if code, _, _ = do(t, h, "GET", "/debug/obs/snapshot", nil); code != 200 {
		t.Fatalf("/debug/obs/snapshot: code %d", code)
	}
	code, body, _ = do(t, h, "GET", "/debug/obs/sessions", nil)
	if code != 200 || !strings.Contains(string(body), "d1") {
		t.Fatalf("/debug/obs/sessions: code %d body %s", code, body)
	}
	if code, _, _ = do(t, h, "GET", "/", nil); code != 200 {
		t.Fatalf("index: code %d", code)
	}

	// Error paths.
	if code, _, _ = do(t, h, "POST", "/v1/designs/none/analyze", nil); code != 404 {
		t.Fatalf("unknown design: code %d, want 404", code)
	}
	code, _, _ = do(t, h, "POST", "/v1/designs/d1/analyze", map[string]any{"mode": "bogus"})
	if code != 400 {
		t.Fatalf("bad mode: code %d, want 400", code)
	}
	code, _, _ = do(t, h, "POST", "/v1/designs/d1/analyze", map[string]any{"corner": "XX"})
	if code != 400 {
		t.Fatalf("bad corner: code %d, want 400", code)
	}
	code, _, _ = do(t, h, "POST", "/v1/designs/d1/edit", map[string]any{"edits": []any{}})
	if code != 400 {
		t.Fatalf("empty edit batch: code %d, want 400", code)
	}
}

func TestLoadDesignOverHTTP(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	spec := map[string]any{"id": "syn", "cells": 90, "dffs": 8, "depth": 5, "seed": 7}
	code, body, _ := do(t, h, "POST", "/v1/designs", spec)
	if code != 201 {
		t.Fatalf("load: code %d body %s", code, body)
	}
	if got := s.reg.Gauge(obs.MServerDesignsLoaded).Value(); got != 1 {
		t.Fatalf("designs_loaded gauge = %v, want 1", got)
	}
	// Duplicate id conflicts.
	if code, _, _ = do(t, h, "POST", "/v1/designs", spec); code != 409 {
		t.Fatalf("duplicate load: code %d, want 409", code)
	}
	// The loaded design analyzes.
	if code, body, _ = do(t, h, "POST", "/v1/designs/syn/analyze", nil); code != 200 {
		t.Fatalf("analyze loaded design: code %d body %s", code, body)
	}
	// Neither preset nor cells is a 400.
	if code, _, _ = do(t, h, "POST", "/v1/designs", map[string]any{"id": "x"}); code != 400 {
		t.Fatalf("empty spec: code %d, want 400", code)
	}
}

// TestCoalescing is the headline guarantee: N identical concurrent
// queries run exactly one analysis and every caller gets
// byte-for-byte (hence Float64bits-) identical response bodies. The
// leader is gated on a hook so all followers provably attach to the
// live flight before it computes anything.
func TestCoalescing(t *testing.T) {
	const n = 6
	s, _ := newTestServer(t, Config{MaxInFlight: 2, MaxQueue: 16})
	h := s.Handler()

	entered := make(chan string, 1)
	release := make(chan struct{})
	var leaderCalls atomic.Int64
	s.hookLeader = func(key string) {
		leaderCalls.Add(1)
		entered <- key
		<-release
	}

	type resp struct {
		code int
		body []byte
		hdr  http.Header
	}
	results := make(chan resp, n)
	for i := 0; i < n; i++ {
		go func() {
			code, body, hdr := do(t, h, "POST", "/v1/designs/d1/analyze",
				map[string]any{"mode": "iterative"})
			results <- resp{code, body, hdr}
		}()
	}

	key := <-entered // exactly one leader entered the flight
	if !strings.Contains(key, "analyze|d1|") {
		t.Fatalf("unexpected flight key %q", key)
	}
	// All n-1 others must join the live flight — observable before the
	// leader is released, so none of them can start a second analysis.
	waitFor(t, "followers to join the flight", func() bool {
		return s.flights.joined.Load() == n-1
	})
	close(release)

	var bodies [][]byte
	for i := 0; i < n; i++ {
		r := <-results
		if r.code != 200 {
			t.Fatalf("coalesced query: code %d body %s", r.code, r.body)
		}
		if r.hdr.Get("X-Cache") != "" {
			t.Fatalf("coalesced query served from cache")
		}
		bodies = append(bodies, r.body)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from leader:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := leaderCalls.Load(); got != 1 {
		t.Fatalf("analyses run = %d, want exactly 1", got)
	}
	if got := s.coalLeaders.Value(); got != 1 {
		t.Fatalf("coalesce leaders counter = %v, want 1", got)
	}
	if got := s.coalHits.Value(); got != n-1 {
		t.Fatalf("coalesce hits counter = %v, want %d", got, n-1)
	}

	// A later identical query on the unchanged revision is a cache hit
	// with, again, the exact same bytes.
	s.hookLeader = nil
	code, body, hdr := do(t, h, "POST", "/v1/designs/d1/analyze",
		map[string]any{"mode": "iterative"})
	if code != 200 || hdr.Get("X-Cache") != "hit" {
		t.Fatalf("repeat query: code %d X-Cache %q", code, hdr.Get("X-Cache"))
	}
	if !bytes.Equal(body, bodies[0]) {
		t.Fatalf("cached body differs:\n%s\nvs\n%s", body, bodies[0])
	}
	if got := s.cacheHits.Value(); got != 1 {
		t.Fatalf("result cache hits = %v, want 1", got)
	}
}

// TestLoadShedding drives the admission gate over HTTP: a queued
// request whose deadline expires sheds with 503, a request arriving at
// a full queue sheds immediately with 429, and once the congestion
// clears the same queries succeed.
func TestLoadShedding(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1, QueueTimeout: 5 * time.Second})
	h := s.Handler()

	// Occupy the single slot so every request below must queue or shed.
	if err := s.adm.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Request A queues, then its per-request deadline expires: 503.
	aDone := make(chan int, 1)
	go func() {
		code, _, _ := do(t, h, "POST", "/v1/designs/d1/analyze",
			map[string]any{"mode": "best", "timeout_ms": 60})
		aDone <- code
	}()
	waitFor(t, "request A to queue", func() bool { return s.adm.Queued() == 1 })

	// Request B finds the queue full: immediate 429.
	code, body, _ := do(t, h, "POST", "/v1/designs/d1/analyze",
		map[string]any{"mode": "worst", "timeout_ms": 5000})
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue-full request: code %d body %s, want 429", code, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("429 body: %s", body)
	}

	if code := <-aDone; code != http.StatusServiceUnavailable {
		t.Fatalf("deadline-expired request: code %d, want 503", code)
	}
	shed := s.reg.CounterVec(obs.MServerShed, "reason")
	if got := shed.With("queue_full").Value(); got < 1 {
		t.Fatalf("shed{queue_full} = %v, want >= 1", got)
	}
	if got := shed.With("deadline").Value(); got < 1 {
		t.Fatalf("shed{deadline} = %v, want >= 1", got)
	}

	// Congestion clears: the same query now runs.
	s.adm.Release()
	code, body, _ = do(t, h, "POST", "/v1/designs/d1/analyze",
		map[string]any{"mode": "best", "timeout_ms": 5000})
	if code != 200 {
		t.Fatalf("post-congestion analyze: code %d body %s", code, body)
	}
}

// TestEditReanalyzeBitExact: an edit batch reanalyzed incrementally
// (seeded from the server's last full result) lands on Float64bits the
// same longest path as a from-scratch analysis of an identically
// edited twin design.
func TestEditReanalyzeBitExact(t *testing.T) {
	s := New(Config{})
	da := newDesign(t, 41)
	db := newDesign(t, 41) // identical twin: same params, same seed
	if err := s.Register("a", "twin a", da); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b", "twin b", db); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	pairs := da.CoupledPairs(1)
	if len(pairs) == 0 {
		t.Fatal("test design has no coupled pairs")
	}
	edit := xtalksta.ScaleCoupling(pairs[0].A, pairs[0].B, 1.8)

	// Seed a's incremental path with a full analysis, then edit+reanalyze.
	if code, body, _ := do(t, h, "POST", "/v1/designs/a/analyze",
		map[string]any{"mode": "iterative"}); code != 200 {
		t.Fatalf("seed analyze: code %d body %s", code, body)
	}
	code, body, _ := do(t, h, "POST", "/v1/designs/a/edit",
		map[string]any{"edits": []any{edit}, "reanalyze_mode": "iterative"})
	if code != 200 {
		t.Fatalf("edit+reanalyze: code %d body %s", code, body)
	}
	var incr editResp
	if err := json.Unmarshal(body, &incr); err != nil {
		t.Fatal(err)
	}
	if incr.LongestPathNs == nil || incr.Revision != 1 || !incr.Incremental {
		t.Fatalf("edit+reanalyze response: %s", body)
	}

	// Twin b: plain edit, then a full analysis.
	code, body, _ = do(t, h, "POST", "/v1/designs/b/edit",
		map[string]any{"edits": []any{edit}})
	if code != 200 {
		t.Fatalf("plain edit: code %d body %s", code, body)
	}
	code, body, _ = do(t, h, "POST", "/v1/designs/b/analyze",
		map[string]any{"mode": "iterative"})
	if code != 200 {
		t.Fatalf("twin analyze: code %d body %s", code, body)
	}
	var full analyzeResp
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(*incr.LongestPathNs) != math.Float64bits(full.LongestPathNs) {
		t.Fatalf("incremental reanalysis diverged: %v vs full %v",
			*incr.LongestPathNs, full.LongestPathNs)
	}
	if got := s.editBatches.Value(); got != 2 {
		t.Fatalf("edit batches counter = %v, want 2", got)
	}
}

// TestEditInvalidatesCache: the response cache is keyed by revision, so
// an edit batch makes the next identical query recompute.
func TestEditInvalidatesCache(t *testing.T) {
	s, d := newTestServer(t, Config{})
	h := s.Handler()

	code, first, _ := do(t, h, "POST", "/v1/designs/d1/analyze", nil)
	if code != 200 {
		t.Fatalf("analyze: code %d", code)
	}
	_, _, hdr := do(t, h, "POST", "/v1/designs/d1/analyze", nil)
	if hdr.Get("X-Cache") != "hit" {
		t.Fatal("second identical query missed the cache")
	}

	pairs := d.CoupledPairs(1)
	code, body, _ := do(t, h, "POST", "/v1/designs/d1/edit",
		map[string]any{"edits": []any{xtalksta.ScaleCoupling(pairs[0].A, pairs[0].B, 2.5)}})
	if code != 200 {
		t.Fatalf("edit: code %d body %s", code, body)
	}

	code, second, hdr := do(t, h, "POST", "/v1/designs/d1/analyze", nil)
	if code != 200 || hdr.Get("X-Cache") == "hit" {
		t.Fatalf("post-edit query: code %d X-Cache %q, want fresh compute", code, hdr.Get("X-Cache"))
	}
	var a, b analyzeResp
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &b); err != nil {
		t.Fatal(err)
	}
	if b.Revision != a.Revision+1 {
		t.Fatalf("revision %d -> %d, want +1", a.Revision, b.Revision)
	}
}

// TestOversizedEditBody: a body past maxBodyBytes is refused with 413
// before any edit lands, even when its leading edit batch is valid.
func TestOversizedEditBody(t *testing.T) {
	s, d := newTestServer(t, Config{})
	h := s.Handler()
	pairs := d.CoupledPairs(1)
	code, body, _ := do(t, h, "POST", "/v1/designs/d1/edit", map[string]any{
		"edits": []any{xtalksta.ScaleCoupling(pairs[0].A, pairs[0].B, 2.5)},
		"pad":   strings.Repeat("x", maxBodyBytes),
	})
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized edit: code %d body %s, want 413", code, body)
	}
	if rev := d.Revision(); rev != 0 {
		t.Fatalf("oversized edit moved the design to revision %d", rev)
	}
}

// TestServeShutdownNoLeak exercises the daemon lifecycle on a real
// loopback listener: serve, drain, port released.
func TestServeShutdownNoLeak(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	resp, err := http.Get("http://" + addr + "/v1/designs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/v1/designs"); err == nil {
		t.Error("server still reachable after Shutdown")
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Shutdown: %v", err)
	}
	lis.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

// TestConcurrentMixedTraffic is the race-detector workhorse behind
// `make race-server`: many workers hammering reads across modes and
// corners while a writer streams edit batches through the same design.
func TestConcurrentMixedTraffic(t *testing.T) {
	s, d := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 64, Workers: 2})
	h := s.Handler()
	pairs := d.CoupledPairs(4)
	if len(pairs) == 0 {
		t.Fatal("no coupled pairs")
	}

	const workers = 8
	const iters = 5
	modes := []string{"iterative", "best", "worst", "doubled"}
	corners := []string{"", "SS", "FF"}
	var ok200, shed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch {
				case w == 0 && i%2 == 1:
					// The writer: stream an edit batch through the design.
					p := pairs[i%len(pairs)]
					code, body, _ := do(t, h, "POST", "/v1/designs/d1/edit", map[string]any{
						"edits": []any{xtalksta.ScaleCoupling(p.A, p.B, 1.0+0.05*float64(i))},
					})
					if code != 200 && code != 429 && code != 503 {
						t.Errorf("edit: code %d body %s", code, body)
					}
				case w == 1 && i == 2:
					code, _, _ := do(t, h, "GET", "/v1/designs/d1/paths?topk=2", nil)
					if code != 200 && code != 429 && code != 503 {
						t.Errorf("paths: code %d", code)
					}
				default:
					code, body, _ := do(t, h, "POST", "/v1/designs/d1/analyze", map[string]any{
						"mode":   modes[(w+i)%len(modes)],
						"corner": corners[w%len(corners)],
					})
					switch code {
					case 200:
						ok200.Add(1)
					case 429, 503:
						shed.Add(1)
					default:
						t.Errorf("analyze: code %d body %s", code, body)
					}
				}
				if code, _, _ := do(t, h, "GET", "/v1/designs", nil); code != 200 {
					t.Errorf("list: code %d", code)
				}
			}
		}(w)
	}
	wg.Wait()
	if ok200.Load() == 0 {
		t.Fatal("no analyze request succeeded under concurrency")
	}
	t.Logf("mixed traffic: %d analyses OK, %d shed", ok200.Load(), shed.Load())
	// The instrumentation kept counting throughout.
	code, body, _ := do(t, h, "GET", "/metrics", nil)
	if code != 200 || !strings.Contains(string(body), "server_request_duration_seconds") {
		t.Fatal("metrics lost under concurrency")
	}
	if s.adm.InFlight() != 0 || s.adm.Queued() != 0 {
		t.Fatalf("admission gate leaked: inflight %d queued %d", s.adm.InFlight(), s.adm.Queued())
	}
}

// TestInstrumentationLabels pins the endpoint/code label sets the
// metrics-lint inventory documents.
func TestInstrumentationLabels(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	do(t, h, "POST", "/v1/designs/d1/analyze", nil)
	do(t, h, "POST", "/v1/designs/none/analyze", nil)
	_, body, _ := do(t, h, "GET", "/metrics", nil)
	for _, want := range []string{
		`server_requests_total{endpoint="analyze",code="200"} 1`,
		`server_requests_total{endpoint="analyze",code="404"} 1`,
		fmt.Sprintf("# TYPE %s histogram", obs.MServerRequestLatency),
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
