package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"xtalksta"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/delaycalc"
)

const (
	// paperSetups is how many times a paper_s35932 run builds the
	// design; setup_s is their median.
	paperSetups = 3
	// paperLimit is the latency limit of one five-mode sweep, about six
	// times its wall time on 2 cores when the benchmark was defined.
	paperLimit = 120 * time.Second
)

// sweep is one five-mode analysis in table order, each mode on a cold
// characterization cache (the AnalyzeAllOpts convention).
type sweep struct {
	results []*core.Result
	walls   []time.Duration
	busy    []evalBusy // per mode; zero when untraced
	counts  []delaycalc.Counters
	wall    time.Duration
}

// runSweep runs the five analyses over one compiled snapshot. ev is the
// evaluator handed to each session: the calculator itself, or a
// tracedEval wrapping it.
func runSweep(cd *core.Compiled, calc *delaycalc.Calculator, ev delaycalc.Evaluator, workers int) (sweep, error) {
	var s sweep
	tev, _ := ev.(*tracedEval)
	start := time.Now()
	for _, m := range core.Modes() {
		calc.ClearCache()
		opts := cliOptions(m)
		opts.Workers = workers
		var b0 evalBusy
		if tev != nil {
			b0 = tev.busy()
		}
		c0 := calc.Counters()
		t := time.Now()
		eng, err := core.NewSession(cd, ev, opts)
		if err != nil {
			return s, err
		}
		res, err := eng.Run()
		if err != nil {
			return s, fmt.Errorf("%s: %w", m, err)
		}
		s.walls = append(s.walls, time.Since(t))
		s.counts = append(s.counts, calc.Counters().Sub(c0))
		if tev != nil {
			s.busy = append(s.busy, tev.busy().sub(b0))
		} else {
			s.busy = append(s.busy, evalBusy{})
		}
		s.results = append(s.results, res)
	}
	s.wall = time.Since(start)
	return s, nil
}

// modeRecord is the part of one analysis that must repeat exactly: the
// delay bits and the work counts.
type modeRecord struct {
	Mode      string `json:"mode"`
	DelayBits uint64 `json:"delay_bits"`
	Calls     int64  `json:"calls"`
	Sims      int64  `json:"sims"`
	Tier0Hits int64  `json:"tier0_hits"`
	Passes    int    `json:"passes"`
}

func (s sweep) records() []modeRecord {
	out := make([]modeRecord, len(s.results))
	for i, r := range s.results {
		out[i] = modeRecord{
			Mode:      r.Mode.String(),
			DelayBits: math.Float64bits(r.LongestPath),
			Calls:     r.ArcEvaluations,
			Sims:      r.Simulations,
			Tier0Hits: r.Tier0Hits,
			Passes:    r.Passes,
		}
	}
	return out
}

// sameRecords checks two sweeps' records for exact equality.
func sameRecords(out *outcome, what string, a, b []modeRecord) {
	out.check(len(a) == len(b), "%s: %d vs %d modes", what, len(a), len(b))
	for i := range a {
		if i < len(b) {
			out.check(a[i] == b[i], "%s: %s differs: %+v vs %+v", what, a[i].Mode, a[i], b[i])
		}
	}
}

// checkOrder gates the bound ordering of the five delays: Best ≤ One
// step ≤ Worst and Best ≤ Iterative ≤ Worst. Iterative ≤ One step is
// not gated; it holds only up to quantization noise.
func checkOrder(out *outcome, s sweep) {
	lp := map[core.Mode]float64{}
	for _, r := range s.results {
		lp[r.Mode] = r.LongestPath
	}
	best, one, iter, worst := lp[core.BestCase], lp[core.OneStep], lp[core.Iterative], lp[core.WorstCase]
	out.check(best <= one && one <= worst, "order: best %.6g, one step %.6g, worst %.6g", best, one, worst)
	out.check(best <= iter && iter <= worst, "order: best %.6g, iterative %.6g, worst %.6g", best, iter, worst)
}

func runPaper(cfg config, out *outcome) error {
	params, err := presetParams(circuitgen.S35932Like, cfg.scale)
	if err != nil {
		return err
	}
	// The seed generates the circuit: the preset's statistics stay
	// fixed, the netlist changes.
	if cfg.seedSet {
		params.Seed = cfg.seed
	}
	var (
		led setupLedger
		d   *xtalksta.Design
		cd  *core.Compiled
	)
	for i := 0; i < paperSetups; i++ {
		d, cd = nil, nil
		runtime.GC()
		start := time.Now()
		var st stageTimes
		if d, st, err = buildDesign(params, xtalksta.Defaults()); err != nil {
			return err
		}
		tc := time.Now()
		if cd, err = core.Compile(d.Circuit, d.Calc, cliOptions(core.BestCase)); err != nil {
			return err
		}
		compile := time.Since(tc)
		d.Calc.ClearCache()
		led.add(st, compile, 0, time.Since(start))
	}
	out.e2e["setup_s"] = led.total.median()
	if cfg.trace {
		out.layers["mem.live_heap_mb_after_setup"] = liveHeapMB()
	}

	// The measured loop: whole sweeps until --seconds have passed (at
	// least one). A traced run needs one untraced sweep only, as the
	// reference for the overhead and the work counts. Only the first
	// sweep's results are kept; later sweeps are checked against it.
	// peak_rss_mb covers the set-ups and the first sweep, so it does
	// not grow when a faster program fits a second sweep in the window.
	var first sweep
	var lat samples
	good := 0
	start := time.Now()
	for len(lat) == 0 || (!cfg.trace && time.Since(start).Seconds() < cfg.seconds) {
		s, err := runSweep(cd, d.Calc, d.Calc, 2)
		if err != nil {
			return err
		}
		out.attempted++
		checkOrder(out, s)
		if len(lat) == 0 {
			first = s
			out.e2e["peak_rss_mb"] = peakRSSMB()
		} else {
			sameRecords(out, "repeat sweep", first.records(), s.records())
		}
		if s.wall <= paperLimit {
			good++
		}
		lat = append(lat, ms(s.wall))
	}
	measured := time.Since(start)
	setLatency(out, lat, float64(good)/measured.Seconds())
	compareRecord(out, cfg, "paper_s35932", first.records())
	out.detail["delays_ns"] = delaysNs(first)
	var sims int64
	for _, r := range first.results {
		sims += r.Simulations
	}
	out.detail["simulations"] = sims
	if !cfg.trace {
		return nil
	}

	led.report(out)
	ref := first
	out.layers["five_mode_s"] = seconds(ref.wall)
	tev := newTracedEval(d.Calc)
	tr, err := runSweep(cd, d.Calc, tev, 2)
	if err != nil {
		return err
	}
	sameRecords(out, "traced vs untraced", ref.records(), tr.records())
	w1, err := runSweep(cd, d.Calc, tev, 1)
	if err != nil {
		return err
	}
	sameRecords(out, "workers 1 vs 2", tr.records(), w1.records())
	out.layers["trace.overhead"] = seconds(tr.wall)/seconds(ref.wall) - 1
	sweepLedger(out, tr, 2)

	// Scaling row: Iterative at one and two workers.
	it := len(tr.results) - 1
	selfW1 := w1.walls[it] - w1.busy[it].total()
	out.layers["core.self_w1_s"] = seconds(selfW1)
	out.layers["core.speedup_w2"] = seconds(w1.walls[it]) / seconds(tr.walls[it])
	capW2 := 2 * tr.walls[it]
	out.layers["core.idle_share"] = math.Max(0, seconds(capW2-tr.busy[it].total()-selfW1)) / seconds(capW2)
	return nil
}

// sweepLedger fills the core, delaycalc, spice and tier-0 entries from
// a traced sweep run at the given worker count.
func sweepLedger(out *outcome, s sweep, workers int) {
	names := []string{"run.best_s", "run.doubled_s", "run.worst_s", "run.onestep_s", "run.iterative_s"}
	var calls, sims, hits, newton, fails, t0hits, t0fb, boundsCalls int64
	var busy evalBusy
	var capacity time.Duration
	for i, r := range s.results {
		out.layers[names[i]] = seconds(s.walls[i])
		calls += r.ArcEvaluations
		sims += r.Simulations
		hits += r.CacheHits
		newton += s.counts[i].NewtonIterations
		fails += s.counts[i].NewtonFailures
		t0hits += r.Tier0Hits
		t0fb += r.Tier0Fallbacks
		b := s.busy[i]
		busy.hit += b.hit
		busy.miss += b.miss
		busy.bounds += b.bounds
		boundsCalls += b.boundsCalls
		capacity += time.Duration(workers) * s.walls[i]
		if r.Mode == core.Iterative {
			out.layers["core.passes_iterative"] = float64(r.Passes)
		}
	}
	evalLedger(out, calls, sims, hits, newton, fails, busy)
	out.layers["tier0.bounds_calls"] = float64(boundsCalls)
	out.layers["tier0.bounds_busy_s"] = seconds(busy.bounds)
	out.layers["tier0.hits"] = float64(t0hits)
	out.layers["tier0.fallbacks"] = float64(t0fb)
	out.layers["core.other_busy_s"] = seconds(capacity - busy.total())
}

// evalLedger fills the delaycalc and spice entries.
func evalLedger(out *outcome, calls, sims, hits, newton, fails int64, busy evalBusy) {
	out.layers["delaycalc.calls"] = float64(calls)
	out.layers["delaycalc.sims"] = float64(sims)
	out.layers["delaycalc.hit_ratio"] = ratio(float64(hits), float64(calls))
	out.layers["delaycalc.hit_busy_s"] = seconds(busy.hit)
	out.layers["delaycalc.miss_busy_s"] = seconds(busy.miss)
	out.layers["delaycalc.us_per_sim"] = ratio(1e6*seconds(busy.miss), float64(sims))
	out.layers["spice.newton_iters"] = float64(newton)
	out.layers["spice.newton_per_sim"] = ratio(float64(newton), float64(sims))
	out.layers["spice.newton_failures"] = float64(fails)
}

// setLatency fills the end-to-end latency and goodput metrics and the
// sample-count entries beside them.
func setLatency(out *outcome, lat samples, goodput float64) {
	tail, pct := lat.tail()
	out.e2e["op_p50_ms"] = lat.median()
	out.e2e["op_tail_ms"] = tail
	out.e2e["goodput_per_s"] = goodput
	out.layers["op.samples"] = float64(len(lat))
	out.layers["op.tail_pct"] = pct
	out.detail["op_samples"] = len(lat)
	out.detail["op_tail_pct"] = pct
	v := lat.sorted()
	var deciles []float64
	for q := 1; q < 10; q++ {
		deciles = append(deciles, v[q*(len(v)-1)/10])
	}
	out.detail["op_deciles_ms"] = deciles
}

func delaysNs(s sweep) map[string]float64 {
	m := make(map[string]float64, len(s.results))
	for _, r := range s.results {
		m[r.Mode.String()] = r.LongestPath * 1e9
	}
	return m
}
