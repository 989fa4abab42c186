package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"time"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/incremental"
	"xtalksta/internal/server"
)

const (
	// daemonScale is the s38417 preset scale the daemon serves.
	daemonScale = 0.1
	// daemonSetups is how many times a run builds the design and
	// starts the server; setup_s is their median.
	daemonSetups = 21
	// Every daemonEditEvery-th request is an edit batch. Each revision
	// then sees 11 reads: one miss per (mode, corner) key and two
	// repeats, answered from the response cache.
	daemonEditEvery = 12
	// daemonLimit is the latency limit of one request, about twice the
	// cold full Iterative analysis of the served design (1.8 s on 2
	// cores when the benchmark was defined).
	daemonLimit = 3600 * time.Millisecond
	// daemonEdits is the number of edits per batch.
	daemonEdits = 4
	// daemonRSSEdits is the number of edit batches peak_rss_mb covers.
	// The server's memory grows with each revision it has served, so a
	// peak taken at the end of the window would grow with throughput;
	// this many batches are done in about a third of a 20 s window.
	daemonRSSEdits = 24
)

// readKeys is the analyze mix: {iterative, best, worst} × {TT, SS, FF}.
var readKeys = func() [][2]string {
	var keys [][2]string
	for _, corner := range []string{"TT", "SS", "FF"} {
		for _, mode := range []string{"iterative", "best", "worst"} {
			keys = append(keys, [2]string{mode, corner})
		}
	}
	return keys
}()

// served is one running server over one design.
type served struct {
	d    *xtalksta.Design
	srv  *server.Server
	reg  *xtalksta.MetricsRegistry
	base string
}

// serve builds the design and starts an in-process server on a
// loopback port, returning the build stages and the time to start
// serving. The server runs the options cmd/xtalkstad ships with
// (sequential sweeps, tier-0 off), with one in-flight slot: the
// benchmark's one client connection never has two requests out.
func serve(params circuitgen.Params) (*served, stageTimes, time.Duration, error) {
	reg := xtalksta.NewMetricsRegistry()
	bopts := xtalksta.Defaults()
	bopts.Calc.Metrics = reg
	bopts.Layout.Metrics = reg
	d, st, err := buildDesign(params, bopts)
	if err != nil {
		return nil, st, 0, err
	}
	start := time.Now()
	srv := server.New(server.Config{Registry: reg, MaxInFlight: 1})
	if err := srv.Register("main", params.Name, d); err != nil {
		return nil, st, 0, err
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, st, 0, err
	}
	s := &served{d: d, srv: srv, reg: reg, base: "http://" + srv.Addr() + "/v1/designs/main"}
	return s, st, time.Since(start), nil
}

func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx) // the process is exiting; a drain timeout only cuts idle waits
}

// reqResult is one request of the closed loop.
type reqResult struct {
	edit    bool
	hit     bool
	status  int
	err     error
	service time.Duration // from the send to the end of the response
	// late is the send time minus the due time: the end of the last
	// response, or the start of the loop.
	late time.Duration
}

type analyzeReply struct {
	Revision      uint64  `json:"revision"`
	LongestPathNs float64 `json:"longest_path_ns"`
}

func post(client *http.Client, url string, body any) (status int, hit bool, reply []byte, err error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, false, nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, false, nil, err
	}
	defer resp.Body.Close()
	reply, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache") == "hit", reply, err
}

func analyze(client *http.Client, base, mode, corner string) (int, bool, analyzeReply, error) {
	var r analyzeReply
	status, hit, body, err := post(client, base+"/analyze", map[string]string{"mode": mode, "corner": corner})
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(body, &r)
	}
	return status, hit, r, err
}

func runDaemon(cfg config, out *outcome) error {
	// The inputs are the same for every seed: the preset's own circuit
	// and an edit stream from the preset's seed. The cost of the misses
	// after an edit depends on what the batch touched, and with seeded
	// streams the latency median of ten runs of an open loop at 18
	// requests/s spread by 17–44% of its median, against 15% with the
	// inputs fixed.
	params, err := presetParams(circuitgen.S38417Like, daemonScale*cfg.scale)
	if err != nil {
		return err
	}
	// The workload runs on one P: one client, one in-flight slot and
	// sequential sweeps keep one core busy. With two Ps, in alternating
	// runs on a shared 2-core machine, the host took 15–21% of the
	// cores' time instead of 2–8%, and the latency median rose from
	// 15–17 ms to 22–25 ms.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var (
		led setupLedger
		s   *served
	)
	for i := 0; i < daemonSetups; i++ {
		if s != nil {
			s.stop()
			s = nil
		}
		runtime.GC()
		start := time.Now()
		var (
			st    stageTimes
			begin time.Duration
		)
		if s, st, begin, err = serve(params); err != nil {
			return err
		}
		led.add(st, 0, begin, time.Since(start))
	}
	defer s.stop()
	out.e2e["setup_s"] = led.total.median()
	if cfg.trace {
		out.layers["mem.live_heap_mb_after_setup"] = liveHeapMB()
		led.report(out)
	}

	// One client connection sends every request, each as soon as the
	// last is answered, so no two requests share the cores: with two
	// connections the latency median moved by 60% when a busy
	// neighbour held one of the two cores.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 60 * time.Second}

	// Warm-up, untimed: one read per key fills the per-corner
	// characterization caches, so the measured window sees the steady
	// state of a long-running daemon rather than its first minute.
	warm := time.Now()
	for _, key := range readKeys {
		status, _, _, err := analyze(client, s.base, key[0], key[1])
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			return fmt.Errorf("warm-up %v: %w", key, err)
		}
	}
	out.detail["warmup_s"] = seconds(time.Since(warm))

	// Edit batches are generated on a private copy of the circuit, so
	// every batch is valid against the revision the server holds when
	// it arrives.
	shadow := s.d.Circuit.CloneForEdit()
	var ov incremental.Overrides
	rng := rand.New(rand.NewSource(params.Seed))
	nextBatch := func() ([]incremental.Edit, error) {
		batch := incremental.RandomBatch(shadow, rng, daemonEdits)
		_, err := incremental.Apply(shadow, &ov, batch, nil, nil)
		return batch, err
	}
	results, err := closedLoop(client, s.base, time.Duration(cfg.seconds*float64(time.Second)), nextBatch)
	if err != nil {
		return err
	}
	elapsed := results.elapsed

	var lat, hitSvc, missSvc, editSvc samples
	var late time.Duration
	var good, hits, reads, edited int
	for _, r := range results.reqs {
		out.attempted++
		late = max(late, r.late)
		lat = append(lat, ms(r.service))
		if r.edit {
			edited++
		}
		if r.err != nil || r.status/100 != 2 {
			out.check(false, "request failed: status %d, error %v", r.status, r.err)
			continue
		}
		if r.service <= daemonLimit {
			good++
		}
		switch {
		case r.edit:
			editSvc = append(editSvc, ms(r.service))
		case r.hit:
			hits++
			reads++
			hitSvc = append(hitSvc, ms(r.service))
		default:
			reads++
			missSvc = append(missSvc, ms(r.service))
		}
	}
	// A window too short for daemonRSSEdits batches reports the peak
	// at its end.
	if results.rssMB > 0 {
		out.e2e["peak_rss_mb"] = results.rssMB
		out.detail["peak_rss_edits"] = daemonRSSEdits
	} else {
		out.e2e["peak_rss_mb"] = peakRSSMB()
		out.detail["peak_rss_edits"] = edited
	}
	goodput := float64(good) / elapsed.Seconds()
	setLatency(out, lat, goodput)
	out.detail["requests"] = len(results.reqs)
	out.detail["edits"] = edited
	out.detail["cache_hits"] = hits

	if err := verifyServed(client, s, out); err != nil {
		return err
	}
	if !cfg.trace {
		return nil
	}
	tail, _ := lat.tail()
	out.layers["serve_p50_ms"] = lat.median()
	out.layers["serve_tail_ms"] = tail
	out.layers["serve_goodput_rps"] = goodput
	out.layers["server.hit_p50_ms"] = hitSvc.median()
	out.layers["server.miss_p50_ms"] = missSvc.median()
	out.layers["server.edit_p50_ms"] = editSvc.median()
	out.layers["server.cache_hit_ratio"] = ratio(float64(hits), float64(reads))
	out.layers["load.late_max_ms"] = ms(late)
	dump := s.reg.Snapshot()
	var shed int64
	for name, v := range dump.Counters {
		if strings.HasPrefix(name, "server_shed_total") {
			shed += v
		}
	}
	out.layers["server.shed"] = float64(shed)
	out.layers["server.coalesce_hits"] = float64(dump.Counters["server_coalesce_hits_total"])
	out.layers["server.analyses"] = float64(dump.Counters["server_coalesce_leaders_total"])
	out.layers["server.snapshot_builds"] = float64(dump.Counters["snapshot_builds_total"])
	calls := dump.Counters["arc_evaluations_total"]
	sims := dump.Counters["simulations_total"]
	evalLedger(out, calls, sims, calls-sims, dump.Counters["newton_iterations_total"],
		dump.Counters["newton_convergence_failures_total"], evalBusy{})
	return nil
}

type loopResult struct {
	reqs    []reqResult
	elapsed time.Duration
	// rssMB is the peak RSS when the daemonRSSEdits-th edit batch was
	// answered, or 0 if the loop did not get there.
	rssMB float64
}

// closedLoop sends requests until window has passed, each as soon as
// the last is answered. Every daemonEditEvery-th request is an edit
// batch from nextBatch; the reads cycle over readKeys.
func closedLoop(client *http.Client, base string, window time.Duration, nextBatch func() ([]incremental.Edit, error)) (loopResult, error) {
	var res loopResult
	var reads, edits int
	start := time.Now()
	due := start
	for i := 0; time.Since(start) < window; i++ {
		var r reqResult
		var sent time.Time
		if i%daemonEditEvery == daemonEditEvery-1 {
			batch, err := nextBatch()
			if err != nil {
				return res, err
			}
			sent = time.Now()
			r.edit = true
			r.status, _, _, r.err = post(client, base+"/edit", map[string]any{"edits": batch})
			edits++
		} else {
			key := readKeys[reads%len(readKeys)]
			reads++
			sent = time.Now()
			r.status, r.hit, _, r.err = analyze(client, base, key[0], key[1])
		}
		r.service = time.Since(sent)
		r.late = sent.Sub(due)
		due = sent.Add(r.service)
		if r.edit && edits == daemonRSSEdits {
			res.rssMB = peakRSSMB()
		}
		res.reqs = append(res.reqs, r)
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// verifyServed checks, after the last edit, one served analysis per
// (mode, corner) against a direct Design.Analyze/AnalyzeCorner at the
// same revision, bit for bit.
func verifyServed(client *http.Client, s *served, out *outcome) error {
	modes := map[string]core.Mode{"iterative": core.Iterative, "best": core.BestCase, "worst": core.WorstCase}
	rev := s.d.Revision()
	for _, key := range readKeys {
		status, _, rep, err := analyze(client, s.base, key[0], key[1])
		if err != nil || status != http.StatusOK {
			out.check(false, "verify %v: status %d, error %v", key, status, err)
			continue
		}
		opts := core.Options{Mode: modes[key[0]]}
		var res *core.Result
		if key[1] == "TT" {
			res, err = s.d.Analyze(opts)
		} else {
			res, err = s.d.AnalyzeCorner(xtalksta.Corner(key[1]), opts)
		}
		if err != nil {
			return fmt.Errorf("direct analysis %v: %w", key, err)
		}
		want := res.LongestPath * 1e9
		out.check(rep.Revision == rev && math.Float64bits(rep.LongestPathNs) == math.Float64bits(want),
			"verify %v: served %v at revision %d, direct %v at revision %d", key, rep.LongestPathNs, rep.Revision, want, rev)
	}
	return nil
}
