package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"xtalksta/internal/ccc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/waveform"
)

// EndpointArrival is one endpoint's worst arrival.
type EndpointArrival struct {
	Net     string
	Kind    string // "DFF/D" or "PO"
	Cell    string // capturing flip-flop ("" for POs)
	Dir     waveform.Direction
	Arrival float64
	// Setup is the flip-flop setup requirement (0 for POs).
	Setup float64
}

// Slack returns the setup slack against a clock period: period − setup
// − arrival (POs have no setup).
func (ea EndpointArrival) Slack(period float64) float64 {
	return period - ea.Setup - ea.Arrival
}

// TimingReport holds the per-endpoint view of one analysis.
type TimingReport struct {
	Mode      Mode
	Period    float64
	Endpoints []EndpointArrival // sorted worst-first
}

// Violations returns the endpoints with negative slack.
func (tr *TimingReport) Violations() []EndpointArrival {
	var out []EndpointArrival
	for _, ep := range tr.Endpoints {
		if ep.Slack(tr.Period) < 0 {
			out = append(out, ep)
		}
	}
	return out
}

// WNS returns the worst negative slack (or the smallest slack when none
// is negative).
func (tr *TimingReport) WNS() float64 {
	if len(tr.Endpoints) == 0 {
		return math.Inf(1)
	}
	return tr.Endpoints[0].Slack(tr.Period)
}

// TNS returns the total negative slack.
func (tr *TimingReport) TNS() float64 {
	t := 0.0
	for _, ep := range tr.Endpoints {
		if s := ep.Slack(tr.Period); s < 0 {
			t += s
		}
	}
	return t
}

// Render writes the top-k endpoints as a classic report_timing summary.
func (tr *TimingReport) Render(w io.Writer, k int) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "timing report — %s analysis, clock period %.3f ns\n", tr.Mode, tr.Period*1e9)
	fmt.Fprintf(&sb, "WNS %.3f ns, TNS %.3f ns, %d endpoints, %d violated\n",
		tr.WNS()*1e9, tr.TNS()*1e9, len(tr.Endpoints), len(tr.Violations()))
	fmt.Fprintf(&sb, "%-20s %-6s %-5s %12s %12s %9s\n", "Endpoint", "Kind", "Dir", "Arrival[ns]", "Slack[ns]", "Status")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 70))
	for i, ep := range tr.Endpoints {
		if i >= k {
			break
		}
		slack := ep.Slack(tr.Period)
		status := "MET"
		if slack < 0 {
			status = "VIOLATED"
		}
		fmt.Fprintf(&sb, "%-20s %-6s %-5s %12.3f %12.3f %9s\n",
			ep.Net, ep.Kind, ep.Dir, ep.Arrival*1e9, slack*1e9, status)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// Report runs the configured analysis and returns the per-endpoint
// timing report for the given clock period.
func (e *Engine) Report(period float64) (*TimingReport, error) {
	if period <= 0 {
		return nil, fmt.Errorf("core: clock period must be positive, got %g", period)
	}
	// Re-run the analysis to obtain the final pass state. For the
	// single-pass modes this is exactly one pass; for Iterative we
	// reuse Run's loop by running it and then one more pass with the
	// stored quiet times — cheap because the characterization cache is
	// warm.
	st, _, err := e.finalState(nil, nil, nil)
	if err != nil {
		return nil, err
	}
	rep := &TimingReport{Mode: e.opts.Mode, Period: period}
	for _, ep := range e.endpoints {
		s := &st[ep.net-1]
		if !s.calculated {
			continue
		}
		worst := math.Inf(-1)
		dir := dirRise
		for d := 0; d < 2; d++ {
			if a := s.arrival[d]; !math.IsInf(a, -1) && a > worst {
				worst = a
				dir = d
			}
		}
		if math.IsInf(worst, -1) {
			continue
		}
		ea := EndpointArrival{
			Net:     e.C.Net(ep.net).Name,
			Arrival: worst + ep.extra,
			Dir:     dirOf(dir),
		}
		if ep.cell != netlist.NoCell {
			ea.Kind = "DFF/D"
			ea.Cell = e.C.Cell(ep.cell).Name
			ea.Setup = ccc.DFFSetup()
		} else {
			ea.Kind = "PO"
		}
		rep.Endpoints = append(rep.Endpoints, ea)
	}
	sort.Slice(rep.Endpoints, func(i, j int) bool {
		si := rep.Endpoints[i].Slack(period)
		sj := rep.Endpoints[j].Slack(period)
		if si != sj {
			return si < sj
		}
		return rep.Endpoints[i].Net < rep.Endpoints[j].Net
	})
	return rep, nil
}

// finalState produces the final-pass netState of the configured
// analysis and the number of BFS passes it took — from scratch
// (prev == nil) or seeded from a stored revision (see runPasses). Run,
// RunSeeded, Report and PathTo all build on it. It also owns the
// run-level telemetry scope: the analysis span ("eco-analysis" when
// seeded), the per-pass stats and the delay-calculator counter deltas
// pushed into the metrics registry.
func (e *Engine) finalState(prev *ReplayState, seed []bool, eco *ECOStats) ([]netState, int, error) {
	t0 := e.beginAnalysisTelemetry()
	e.passStats = nil
	e.replayPasses, e.replayEarly, e.replaySlews = nil, nil, nil
	c0 := e.calcCounters()
	name := "analysis"
	if prev != nil {
		name = "eco-analysis"
	}
	span := e.trace.Begin(name, 0).Arg("mode", e.opts.Mode.String())
	st, passes, err := e.runPasses(prev, seed, eco)
	span.Arg("passes", passes)
	if prev != nil {
		span.Arg("dirty_lines", eco.DirtyLines).
			Arg("reused_lines", eco.ReusedLines).
			Arg("cone_expansions", eco.ConeExpansions)
	}
	span.End()
	d := e.calcCounters().Sub(c0)
	e.m.arcEvals.Add(d.Requests)
	e.m.sims.Add(d.Simulations)
	e.m.newtonIters.Add(d.NewtonIterations)
	e.m.newtonFails.Add(d.NewtonFailures)
	e.endAnalysisTelemetry(t0)
	return st, passes, err
}

// beginAnalysisTelemetry opens the run-level latency scope: the first
// analysis of a session also records its queue wait (the NewSession →
// first-run gap, the daemon-workload admission metric).
func (e *Engine) beginAnalysisTelemetry() time.Time {
	t0 := time.Now()
	if !e.queueWaitDone {
		e.queueWaitDone = true
		if !e.created.IsZero() {
			e.m.queueWait.With(e.modeLabel()).Observe(t0.Sub(e.created).Seconds())
		}
	}
	return t0
}

// endAnalysisTelemetry records the run's wall clock into the labeled
// analysis-latency family and counts the run.
func (e *Engine) endAnalysisTelemetry(t0 time.Time) {
	mode, corner, sched, rev := e.sessionLabels()
	e.m.analysisDur.With(mode, corner, sched, rev).Observe(time.Since(t0).Seconds())
	e.m.analyses.With(mode, corner, sched).Inc()
}

// runPasses implements the per-mode pass control. Every sweep runs
// against a baseline (see ecoPass): pass 1 against the stored
// revision's first pass when seeded (prev, with the edit seeds; its
// work is tallied into eco), else against none; each Iterative
// refinement against the stored revision's matching pass, or else
// against the run's own previous pass — Esperance carries the
// non-critical nets over, delta refinement recomputes only the frontier
// whose evalArc inputs can differ (DisableDeltaRefinement recomputes
// everything instead). Seeded and cold runs share the stop rule, which
// sees the same states and therefore the same longest-path trajectory.
func (e *Engine) runPasses(prev *ReplayState, seed []bool, eco *ECOStats) ([]netState, int, error) {
	mode := e.opts.Mode
	if mode < BestCase || mode > Iterative {
		return nil, 0, fmt.Errorf("core: unknown mode %d", int(mode))
	}
	e.earliestStart = nil
	var earlyVictims []netlist.NetID
	if mode == Iterative && e.opts.Windows {
		var err error
		if earlyVictims, err = e.windowBounds(prev, seed, eco); err != nil {
			return nil, 0, err
		}
	}
	firstMode := mode
	if mode == Iterative {
		firstMode = OneStep
	}
	ec := e.newEcoPass(prev, 0, seed)
	st, delay, err := e.timedPass(1, firstMode, nil, ec, eco)
	if err != nil {
		return nil, 0, err
	}
	passes := 1
	for mode == Iterative && passes < maxPasses {
		var next *ecoPass
		switch {
		case prev != nil:
			next = e.newEcoPass(prev, passes, seed)
			e.seedRefinementDirty(next, ec.changed, earlyVictims)
		case e.opts.Esperance:
			next = e.newCarryPass(st, e.criticalNets(st, delay))
		case e.opts.DisableDeltaRefinement:
			next = &ecoPass{}
		default:
			next = e.newDeltaPass(st, ec)
		}
		e.putEcoPass(ec)
		ec = next
		st2, newDelay, err := e.timedPass(passes+1, Iterative, snapshotQuiet(st), ec, eco)
		if err != nil {
			return nil, 0, err
		}
		passes++
		e.putState(st)
		st = st2
		if newDelay >= delay-1e-12 {
			break
		}
		delay = newDelay
	}
	e.putEcoPass(ec)
	return st, passes, nil
}

// timedPass runs BFS pass n (1-based) inside its telemetry scope,
// books the lines it carried over from its baseline — as ECO reuse when
// seeded from a stored revision (eco != nil), else as Esperance skips
// or delta-refinement convergence — and returns the state with its
// longest-path bound.
func (e *Engine) timedPass(n int, mode Mode, quietPrev [][2]float64, ec *ecoPass, eco *ECOStats) ([]netState, float64, error) {
	e.finalQuietPrev, e.finalPassMode = quietPrev, mode
	ph := e.beginPass(n, mode)
	st, err := e.passSeeded(mode, quietPrev, ec)
	if err != nil {
		return nil, 0, err
	}
	carried := ec.reusedN.Load()
	switch {
	case eco != nil:
		e.accumulateECO(ec, eco)
	case ec.fixed:
		e.passSkips = carried
		e.m.esperanceSkips.Add(carried)
	default:
		e.passConverged = carried
		e.m.convergedSkips.Add(carried)
	}
	return st, e.endPass(ph, st), nil
}

// windowBounds runs the min-pass of a Windows analysis — from scratch,
// or seeded from a stored revision (prev) — and installs the
// earliest-activity bounds. For a seeded run it returns the coupled
// victims of the nets whose bound moved: a moved bound re-opens the
// window pruning question for every such victim, in every refinement
// pass.
func (e *Engine) windowBounds(prev *ReplayState, seed []bool, eco *ECOStats) ([]netlist.NetID, error) {
	name := "min-pass"
	if prev != nil {
		if prev.early == nil {
			return nil, fmt.Errorf("core: RunSeeded: replay lacks min-pass data (captured without Windows?)")
		}
		name = "eco-min-pass"
	}
	sp := e.trace.Begin(name, 0)
	early, slews, changed, err := e.minPass(prev, seed, eco)
	sp.End()
	if err != nil {
		return nil, err
	}
	if !e.opts.DisableReplay {
		e.replayEarly, e.replaySlews = early, slews
	}
	e.earliestStart = startTimes(early, slews)
	if prev == nil {
		return nil, nil
	}
	// The dedup bitset is session scratch (ids are dense), cleared after
	// use by walking the victims.
	var victims []netlist.NetID
	seen := e.getSeenBits()
	for i, ch := range changed {
		if !ch {
			continue
		}
		lo, hi := e.cc.Span(netlist.NetID(i + 1))
		for k := lo; k < hi; k++ {
			other := e.cc.Nbr[k]
			if !seen[other-1] {
				seen[other-1] = true
				victims = append(victims, other)
			}
		}
	}
	for _, v := range victims {
		seen[v-1] = false
	}
	return victims, nil
}
