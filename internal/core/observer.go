package core

import (
	"strconv"
	"time"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/obs"
)

// PassStat is the per-pass breakdown of one analysis: how much work a
// BFS sweep did and where the longest-path bound stood afterwards.
type PassStat struct {
	// Pass is 1-based. For Iterative, pass 1 is the one-step seed pass
	// and later passes are refinements.
	Pass int
	// Mode is the sweep rule the pass executed (OneStep for the
	// iterative seed pass).
	Mode Mode
	// ArcEvaluations / Simulations / CacheHits / NewtonIterations are
	// the delay-calculator work deltas attributable to this pass.
	ArcEvaluations   int64
	Simulations      int64
	CacheHits        int64
	NewtonIterations int64
	// RecalculatedWires counts nets whose arcs were actually
	// re-evaluated (Esperance skips excluded).
	RecalculatedWires int64
	// EsperanceSkips counts nets carried over from the previous pass.
	EsperanceSkips int64
	// ConvergedSkips counts lines the delta-convergent Iterative
	// refinement carried over because their inputs and neighbor
	// quiescent times were bit-identical to the previous pass. Zero for
	// pass 1, for full-recompute passes (including pass 2, which always
	// recomputes everything) and for Esperance runs.
	ConvergedSkips int64
	// LongestPath is the worst endpoint arrival after this pass.
	LongestPath float64
	// Wall is the pass's wall-clock time.
	Wall time.Duration
}

// Observer receives progress callbacks from a running analysis, so
// callers can surface progress without polling.
//
// Threading contract: both callbacks fire on the goroutine that called
// Run/Report (the analysis driver), never on level-worker goroutines,
// and never concurrently — an Observer needs no internal locking as
// long as it is used by one analysis at a time. The Metrics registry
// and Trace sink, by contrast, ARE written from worker goroutines and
// must stay race-safe (the obs implementations are).
type Observer interface {
	// PassStarted fires before each BFS sweep.
	PassStarted(pass int, mode Mode)
	// PassFinished fires after each sweep with its work breakdown,
	// including the longest path so far.
	PassFinished(stat PassStat)
}

// engineMetrics holds the engine's resolved registry instruments. With
// a nil Options.Metrics the instruments are live but unregistered, so
// the hot path is identical either way (one atomic add per event).
type engineMetrics struct {
	arcEvals, sims, newtonIters, newtonFails               *obs.Counter
	couplingActive, couplingGrounded, couplingWindowPruned *obs.Counter
	ccZeroSkips, tbcsHits                                  *obs.Counter
	passes, recalcWires, esperanceSkips                    *obs.Counter
	levels, parallelLevels, workerCells, seqCells          *obs.Counter
	ecoDirty, ecoReused, ecoExpansions, ecoFallbacks       *obs.Counter
	schedSteals, convergedSkips, statePoolReuses           *obs.Counter
	levelCells, schedReadyDepth                            *obs.Histogram
	workers                                                *obs.Gauge

	// Live introspection plane: labeled latency families (resolved to
	// children per analysis — the label tuple is fixed per session) and
	// run accounting.
	analysisDur       *obs.HistogramVec
	passDur           *obs.HistogramVec
	phaseDur          *obs.HistogramVec
	queueWait         *obs.HistogramVec
	analyses          *obs.CounterVec
	attributionBuilds *obs.Counter
}

func newEngineMetrics(r *obs.Registry) *engineMetrics {
	return &engineMetrics{
		arcEvals:             r.Counter(obs.MArcEvaluations),
		sims:                 r.Counter(obs.MSimulations),
		newtonIters:          r.Counter(obs.MNewtonIters),
		newtonFails:          r.Counter(obs.MNewtonFailures),
		couplingActive:       r.Counter(obs.MCouplingActive),
		couplingGrounded:     r.Counter(obs.MCouplingGrounded),
		couplingWindowPruned: r.Counter(obs.MCouplingWindowPruned),
		ccZeroSkips:          r.Counter(obs.MCouplingZeroSkips),
		tbcsHits:             r.Counter(obs.MTBCSReuseHits),
		passes:               r.Counter(obs.MPasses),
		recalcWires:          r.Counter(obs.MRecalcWires),
		esperanceSkips:       r.Counter(obs.MEsperanceSkips),
		levels:               r.Counter(obs.MLevels),
		parallelLevels:       r.Counter(obs.MParallelLevels),
		workerCells:          r.Counter(obs.MWorkerCells),
		seqCells:             r.Counter(obs.MSequentialCells),
		ecoDirty:             r.Counter(obs.MEcoDirtyLines),
		ecoReused:            r.Counter(obs.MEcoReusedLines),
		ecoExpansions:        r.Counter(obs.MEcoConeExpansions),
		ecoFallbacks:         r.Counter(obs.MEcoFullFallbacks),
		schedSteals:          r.Counter(obs.MSchedSteals),
		convergedSkips:       r.Counter(obs.MPassConvergedSkips),
		statePoolReuses:      r.Counter(obs.MPassStateReuses),
		levelCells:           r.Histogram(obs.MLevelCells),
		schedReadyDepth:      r.Histogram(obs.MSchedReadyDepth),
		workers:              r.Gauge(obs.MWorkers),
		analysisDur:          r.HistogramVec(obs.MAnalysisDuration, obs.DurationBounds, "mode", "corner", "scheduler", "revision"),
		passDur:              r.HistogramVec(obs.MPassDuration, obs.DurationBounds, "mode", "pass"),
		phaseDur:             r.HistogramVec(obs.MPhaseDuration, obs.DurationBounds, "mode", "phase"),
		queueWait:            r.HistogramVec(obs.MQueueWait, obs.DurationBounds, "mode"),
		analyses:             r.CounterVec(obs.MAnalyses, "mode", "corner", "scheduler"),
		attributionBuilds:    r.Counter(obs.MAttributionBuilds),
	}
}

// modeLabel / sessionLabels render the session's bounded label tuple
// for the labeled latency families (see DESIGN.md §12).
func (e *Engine) modeLabel() string { return e.opts.Mode.String() }

func (e *Engine) sessionLabels() (mode, corner, scheduler, revision string) {
	return e.modeLabel(), e.opts.Corner, e.opts.Scheduler.String(),
		strconv.FormatUint(e.rev, 10)
}

// calcCounters snapshots the evaluator's work counters, preferring the
// detailed CounterProvider view when the evaluator offers one.
func (e *Engine) calcCounters() delaycalc.Counters {
	if cp, ok := e.Calc.(delaycalc.CounterProvider); ok {
		return cp.Counters()
	}
	req, sims := e.Calc.Stats()
	return delaycalc.Counters{Requests: req, Simulations: sims}
}

// passHandle carries the start-of-pass snapshots between beginPass and
// endPass.
type passHandle struct {
	pass  int
	mode  Mode
	start time.Time
	c0    delaycalc.Counters
	span  *obs.Span
}

// beginPass opens the telemetry scope of one BFS sweep (driver
// goroutine only).
func (e *Engine) beginPass(pass int, mode Mode) *passHandle {
	e.passRecalc.Store(0)
	e.passSkips.Store(0)
	e.passConverged = 0
	if e.opts.Observer != nil {
		e.opts.Observer.PassStarted(pass, mode)
	}
	ph := &passHandle{
		pass:  pass,
		mode:  mode,
		start: time.Now(),
		c0:    e.calcCounters(),
		span:  e.trace.Begin("pass", 0).Arg("pass", pass).Arg("mode", mode.String()),
	}
	return ph
}

// endPass closes the scope, records the PassStat and returns the pass's
// longest-path bound.
func (e *Engine) endPass(ph *passHandle, st []netState) float64 {
	longest, _ := e.longest(st)
	d := e.calcCounters().Sub(ph.c0)
	stat := PassStat{
		Pass:              ph.pass,
		Mode:              ph.mode,
		ArcEvaluations:    d.Requests,
		Simulations:       d.Simulations,
		CacheHits:         d.CacheHits,
		NewtonIterations:  d.NewtonIterations,
		RecalculatedWires: e.passRecalc.Load(),
		EsperanceSkips:    e.passSkips.Load(),
		ConvergedSkips:    e.passConverged,
		LongestPath:       longest,
		Wall:              time.Since(ph.start),
	}
	e.passStats = append(e.passStats, stat)
	if !e.opts.DisableReplay {
		e.replayPasses = append(e.replayPasses, append([]netState(nil), st...))
	}
	e.m.passes.Inc()
	e.m.passDur.With(e.modeLabel(), strconv.Itoa(ph.pass)).Observe(stat.Wall.Seconds())
	ph.span.Arg("longest_ns", longest*1e9).
		Arg("arcs", d.Requests).
		Arg("recalc_wires", stat.RecalculatedWires).
		End()
	if e.opts.Events != nil {
		e.opts.Events.Emit("pass", map[string]any{
			"mode":            ph.mode.String(),
			"session_mode":    e.modeLabel(),
			"revision":        e.rev,
			"pass":            ph.pass,
			"longest_ns":      longest * 1e9,
			"arc_evaluations": d.Requests,
			"simulations":     d.Simulations,
			"recalc_wires":    stat.RecalculatedWires,
			"esperance_skips": stat.EsperanceSkips,
			"converged_skips": stat.ConvergedSkips,
			"wall_ms":         float64(stat.Wall) / 1e6,
		})
	}
	if e.opts.Observer != nil {
		e.opts.Observer.PassFinished(stat)
	}
	return longest
}
