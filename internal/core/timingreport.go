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
	st, _, err := e.finalState()
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
// analysis and the number of BFS passes it took — the single place that
// implements the per-mode pass control (Run and Report both build on
// it). It also owns the run-level telemetry scope: the analysis span,
// the per-pass stats and the delay-calculator counter deltas pushed
// into the metrics registry.
func (e *Engine) finalState() ([]netState, int, error) {
	t0 := e.beginAnalysisTelemetry()
	e.passStats = nil
	e.replayPasses, e.replayEarly, e.replaySlews = nil, nil, nil
	c0 := e.calcCounters()
	span := e.trace.Begin("analysis", 0).Arg("mode", e.opts.Mode.String())
	st, passes, err := e.runPasses()
	span.Arg("passes", passes).End()
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

// runPasses implements the per-mode pass control.
func (e *Engine) runPasses() ([]netState, int, error) {
	switch e.opts.Mode {
	case BestCase, StaticDoubled, WorstCase, OneStep:
		e.finalQuietPrev, e.finalPassMode = nil, e.opts.Mode
		ph := e.beginPass(1, e.opts.Mode)
		st, err := e.pass(e.opts.Mode, nil, nil, nil)
		if err != nil {
			return nil, 0, err
		}
		e.endPass(ph, st)
		return st, 1, nil
	case Iterative:
		if e.opts.Windows {
			sp := e.trace.Begin("min-pass", 0)
			early, slews, err := e.minPassRaw()
			sp.End()
			if err != nil {
				return nil, 0, err
			}
			if !e.opts.DisableReplay {
				e.replayEarly, e.replaySlews = early, slews
			}
			e.earliestStart = startTimes(early, slews)
		} else {
			e.earliestStart = nil
		}
		e.finalQuietPrev, e.finalPassMode = nil, OneStep
		ph := e.beginPass(1, OneStep)
		st, err := e.pass(OneStep, nil, nil, nil)
		if err != nil {
			return nil, 0, err
		}
		delay := e.endPass(ph, st)
		passes := 1
		// Delta-convergent refinement: pass k+1 recomputes only the
		// frontier whose evalArc inputs can differ from pass k — the
		// coupled victims of pass-k changes (they re-read quiescent
		// times through quietPrev) plus, under Windows, the changed nets
		// themselves (own sensitivity bound), grown in-pass by the
		// fanout of anything that diverges. Pass 2 recomputes fully: the
		// classifier switches from the one-step rule to stored quiescent
		// times. Esperance carries its own (approximate) skip rule and
		// is exact relative to itself only without delta carry-over.
		delta := !e.opts.Esperance && !e.opts.DisableDeltaRefinement
		var prevChanged []bool
		var prevEc *ecoPass
		for passes < maxPasses {
			var critical []bool
			var ec *ecoPass
			if delta {
				ec = e.newDeltaPass(st, prevChanged)
				if prevEc != nil {
					e.putEcoPass(prevEc)
					prevEc = nil
				}
			} else if e.opts.Esperance {
				critical = e.criticalNets(st, delay)
			}
			qp := snapshotQuiet(st)
			e.finalQuietPrev, e.finalPassMode = qp, Iterative
			ph := e.beginPass(passes+1, Iterative)
			var st2 []netState
			var err error
			if ec != nil {
				st2, err = e.passSeeded(Iterative, qp, ec)
			} else {
				st2, err = e.pass(Iterative, qp, critical, st)
			}
			if err != nil {
				return nil, 0, err
			}
			passes++
			if ec != nil {
				e.passConverged = ec.reusedN.Load()
				e.m.convergedSkips.Add(e.passConverged)
				prevChanged = ec.changed
				prevEc = ec
			}
			newDelay := e.endPass(ph, st2)
			e.putState(st)
			st = st2
			if newDelay >= delay-1e-12 {
				break
			}
			delay = newDelay
		}
		if prevEc != nil {
			e.putEcoPass(prevEc)
		}
		return st, passes, nil
	}
	return nil, 0, fmt.Errorf("core: finalState: unknown mode %d", int(e.opts.Mode))
}
