package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"xtalksta/internal/ccc"
	"xtalksta/internal/netlist"
)

// Incremental (ECO) re-analysis.
//
// A full analysis stores its per-pass net states (ReplayState); a
// seeded re-run then recomputes only the dirty set — the nets whose
// electrical parameters an edit batch changed (the seeds), grown by
//
//   - the structural fan-out cone: a recomputed net whose state
//     diverged from the stored pass dirties the cells it feeds (and,
//     through launch seeding, the flip-flops it clocks), and
//   - coupled victims: in the first (one-step) pass a victim reads the
//     current-pass quiescent times of lower-rank neighbors, so a
//     diverged aggressor dirties every higher-rank victim; in
//     refinement passes every neighbor's previous-pass quiescent time
//     is read, so a net that diverged in pass k dirties all its
//     coupled victims in pass k+1 regardless of rank.
//
// Clean nets are seeded from the stored pass states, which makes the
// merged result bit-identical to a from-scratch run: the expansion rule
// above covers exactly the reads evalArc/processCell perform, so any
// net left clean would have recomputed to its stored value anyway.

// ReplayState is the stored trajectory of one analysis: the per-pass
// net states, the raw min-pass bounds (Windows runs), and the best-case
// arc cache. It is immutable once attached to a Result.
type ReplayState struct {
	mode Mode
	opts Options
	nets int
	// passes holds a deep copy of the net states after each BFS sweep.
	passes [][]netState
	// early/slews are the raw (pre-conversion) min-pass outputs when
	// Options.Windows was active.
	early, slews [][2]float64
	// bcs is a copy of the cross-pass best-case arc cache at the end of
	// the run, reusable across revisions for electrically unchanged nets.
	bcs [][]bcsEntry
	rev uint64
}

// Mode returns the analysis mode the state was captured under.
func (rs *ReplayState) Mode() Mode { return rs.mode }

// Options returns the options of the captured run. Callers must treat
// the contained maps as read-only.
func (rs *ReplayState) Options() Options { return rs.opts }

// Revision identifies the design revision the state was computed at
// (stamped by the API layer; 0 for standalone engine runs).
func (rs *ReplayState) Revision() uint64 { return rs.rev }

// SetRevision stamps the design revision (API layer bookkeeping).
func (rs *ReplayState) SetRevision(rev uint64) { rs.rev = rev }

// Nets returns the net count of the captured circuit.
func (rs *ReplayState) Nets() int { return rs.nets }

// Passes returns the number of stored BFS sweeps.
func (rs *ReplayState) Passes() int { return len(rs.passes) }

// FinalArrivals returns a copy of the final-pass 50% arrival times per
// (net, dir) — the exactness witnesses the property tests compare.
func (rs *ReplayState) FinalArrivals() [][2]float64 {
	return rs.finalField(func(s *netState) [2]float64 { return s.arrival })
}

// FinalSlews returns a copy of the final-pass slews per (net, dir).
func (rs *ReplayState) FinalSlews() [][2]float64 {
	return rs.finalField(func(s *netState) [2]float64 { return s.slew })
}

// FinalQuiets returns a copy of the final-pass quiescent times per
// (net, dir).
func (rs *ReplayState) FinalQuiets() [][2]float64 {
	return rs.finalField(func(s *netState) [2]float64 { return s.quiet })
}

func (rs *ReplayState) finalField(get func(*netState) [2]float64) [][2]float64 {
	if len(rs.passes) == 0 {
		return nil
	}
	last := rs.passes[len(rs.passes)-1]
	out := make([][2]float64, len(last))
	for i := range last {
		out[i] = get(&last[i])
	}
	return out
}

// takeReplay harvests the capture buffers into a ReplayState and clears
// them. Returns nil when capture was disabled or nothing was captured.
func (e *Engine) takeReplay() *ReplayState {
	if e.opts.DisableReplay || len(e.replayPasses) == 0 {
		return nil
	}
	rs := &ReplayState{
		mode:   e.opts.Mode,
		opts:   e.opts,
		nets:   len(e.C.Nets),
		passes: e.replayPasses,
		early:  e.replayEarly,
		slews:  e.replaySlews,
	}
	if e.bcs != nil {
		rs.bcs = make([][]bcsEntry, len(e.bcs))
		for i, row := range e.bcs {
			if row != nil {
				rs.bcs[i] = append([]bcsEntry(nil), row...)
			}
		}
	}
	e.replayPasses, e.replayEarly, e.replaySlews = nil, nil, nil
	return rs
}

// ECOStats is the work breakdown of one seeded re-analysis.
type ECOStats struct {
	// DirtyLines counts driven lines re-evaluated across all passes;
	// ReusedLines counts the lines seeded from the stored passes.
	DirtyLines, ReusedLines int64
	// ConeExpansions counts dirty-set growth beyond the initial seeds
	// (fan-out cones, clocked flip-flops and coupling victims).
	ConeExpansions int64
	// MinPassDirty counts lines re-evaluated by the seeded min-pass
	// (Windows runs only).
	MinPassDirty int64
	// FullFallback reports that the run could not be seeded (Esperance
	// mode, or a topology where seeding is unsound) and ran from
	// scratch instead.
	FullFallback bool
}

// SeedBCS warms the cross-pass best-case arc cache from a previous
// revision's replay. exclude masks nets whose electrical parameters
// changed; their cached results would be stale. Safe on any engine: the
// cache is keyed on the exact input slew, so a stale-slew entry is
// never consulted, and excluded nets simply recompute.
func (e *Engine) SeedBCS(prev *ReplayState, exclude []bool) {
	if e.bcs == nil || prev == nil || prev.bcs == nil || len(prev.bcs) != len(e.bcs) {
		return
	}
	for i := range e.bcs {
		if exclude != nil && i < len(exclude) && exclude[i] {
			continue
		}
		if e.bcs[i] == nil || len(prev.bcs[i]) != len(e.bcs[i]) {
			continue
		}
		copy(e.bcs[i], prev.bcs[i])
	}
}

// seedableTopology reports whether replay seeding preserves the full
// sweep's phase-visibility semantics. Clock-phase cells and DFF clock
// pins run before the main phase and therefore see main-phase nets as
// uncalculated; a seeded run presents end-of-pass state instead, so any
// clock-phase read of a non-clock, non-PI net forces a full fallback.
func (e *Engine) seedableTopology() bool {
	visible := func(id netlist.NetID) bool {
		n := e.C.Net(id)
		return n.IsPI || n.IsClock
	}
	for _, level := range e.clockLevels {
		for _, cid := range level {
			for _, in := range e.C.Cell(cid).In {
				if !visible(in) {
					return false
				}
			}
		}
	}
	for _, cell := range e.C.Cells {
		if cell.Kind == netlist.DFF && cell.Clock != netlist.NoNet && !visible(cell.Clock) {
			return false
		}
	}
	return true
}

// RunSeeded executes the configured analysis reusing a previous
// revision's ReplayState. seed flags (by NetID−1) the nets whose
// electrical parameters changed since that revision: edited coupling
// pairs (both sides), resized cells' output and input nets, and edited
// primary inputs. The result is bit-identical to Run on the edited
// circuit; only the work differs (see Result.ECO).
func (e *Engine) RunSeeded(prev *ReplayState, seed []bool) (*Result, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: RunSeeded: nil replay state")
	}
	if prev.nets != len(e.C.Nets) {
		return nil, fmt.Errorf("core: RunSeeded: replay has %d nets, circuit has %d (structural edits need a full run)", prev.nets, len(e.C.Nets))
	}
	if prev.mode != e.opts.Mode {
		return nil, fmt.Errorf("core: RunSeeded: replay was captured in %s mode, engine runs %s", prev.mode, e.opts.Mode)
	}
	if len(seed) != len(e.C.Nets) {
		return nil, fmt.Errorf("core: RunSeeded: seed mask has %d entries, want %d", len(seed), len(e.C.Nets))
	}
	start := time.Now()
	e.Calc.ResetStats()
	res := &Result{Mode: e.opts.Mode}
	eco := &ECOStats{}
	var seedNets int64
	for _, s := range seed {
		if s {
			seedNets++
		}
	}
	seed = e.structuralCone(seed, eco)

	var (
		st     []netState
		passes int
		err    error
	)
	if (e.opts.Mode == Iterative && e.opts.Esperance) || !e.seedableTopology() {
		// Esperance's critical mask is a function of the global longest
		// path, not of local dirty cones — a seeded run cannot reproduce
		// which nets the full run would have skipped. Fall back.
		eco.FullFallback = true
		e.m.ecoFallbacks.Inc()
		st, passes, err = e.finalState()
	} else {
		st, passes, err = e.seededState(prev, seed, eco)
	}
	if err != nil {
		return nil, err
	}
	res.Passes = passes
	res.PassStats = append([]PassStat(nil), e.passStats...)
	e.finish(res, st)
	res.ECO = eco
	res.Replay = e.takeReplay()
	if res.Replay != nil {
		res.Replay.rev = prev.rev
	}
	res.Runtime = time.Since(start)
	res.ArcEvaluations, res.Simulations = e.Calc.Stats()
	res.CacheHits = e.calcCounters().CacheHits
	if e.opts.Attribution {
		attr, err := e.buildAttribution(st)
		if err != nil {
			return nil, err
		}
		res.Attribution = attr
	}
	e.emitAnalysisEvent("eco", res, map[string]any{
		"base_revision":   prev.rev,
		"seed_nets":       seedNets,
		"dirty_lines":     eco.DirtyLines,
		"reused_lines":    eco.ReusedLines,
		"cone_expansions": eco.ConeExpansions,
		"full_fallback":   eco.FullFallback,
	})
	return res, nil
}

// structuralCone closes the seed mask over structural fan-out: every
// line fed (transitively) by a seeded net is dirty up front, matching
// the dirty-set definition (union of fan-out cones of the edited
// nodes). Coupling victims are NOT part of the structural cone — they
// join the dirty set during the passes, when the quiescent-time test
// shows a dirty aggressor actually influences them (see DESIGN.md §9).
// Over-seeding is always exact: a dirty line recomputes from the same
// inputs the full run sees, so an unchanged line reproduces its stored
// value. Returns a fresh mask; the caller's slice is not mutated.
func (e *Engine) structuralCone(seed []bool, eco *ECOStats) []bool {
	if e.coneBuf == nil {
		e.coneBuf = make([]bool, len(seed))
	}
	cone := e.coneBuf
	copy(cone, seed)
	queue := e.coneQueue[:0]
	for i, s := range seed {
		if s {
			queue = append(queue, netlist.NetID(i+1))
		}
	}
	mark := func(id netlist.NetID) {
		if !cone[id-1] {
			cone[id-1] = true
			eco.ConeExpansions++
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		net := queue[0]
		queue = queue[1:]
		for _, ref := range e.C.Net(net).Fanout {
			cell := e.C.Cell(ref.Cell)
			if cell.Kind == netlist.DFF || cell.Out == netlist.NoNet {
				continue
			}
			mark(cell.Out)
		}
		for _, dff := range e.clockSinksOf(net) {
			if out := e.C.Cell(dff).Out; out != netlist.NoNet {
				mark(out)
			}
		}
	}
	e.m.ecoExpansions.Add(eco.ConeExpansions)
	e.coneQueue = queue[:0]
	return cone
}

// seededState mirrors finalState's telemetry scope for seeded runs.
func (e *Engine) seededState(prev *ReplayState, seed []bool, eco *ECOStats) ([]netState, int, error) {
	t0 := e.beginAnalysisTelemetry()
	defer e.endAnalysisTelemetry(t0)
	e.passStats = nil
	e.replayPasses, e.replayEarly, e.replaySlews = nil, nil, nil
	c0 := e.calcCounters()
	span := e.trace.Begin("eco-analysis", 0).Arg("mode", e.opts.Mode.String())
	st, passes, err := e.runPassesSeeded(prev, seed, eco)
	span.Arg("passes", passes).
		Arg("dirty_lines", eco.DirtyLines).
		Arg("reused_lines", eco.ReusedLines).
		Arg("cone_expansions", eco.ConeExpansions).
		End()
	d := e.calcCounters().Sub(c0)
	e.m.arcEvals.Add(d.Requests)
	e.m.sims.Add(d.Simulations)
	e.m.newtonIters.Add(d.NewtonIterations)
	e.m.newtonFails.Add(d.NewtonFailures)
	return st, passes, err
}

// runPassesSeeded is runPasses with replay seeding: identical pass
// control (including the Iterative stop rule, which sees the same
// merged states and therefore the same longest-path trajectory).
func (e *Engine) runPassesSeeded(prev *ReplayState, seed []bool, eco *ECOStats) ([]netState, int, error) {
	mode := e.opts.Mode
	var earlyVictims []netlist.NetID
	if mode == Iterative {
		if e.opts.Windows {
			if prev.early == nil {
				return nil, 0, fmt.Errorf("core: RunSeeded: replay lacks min-pass data (captured without Windows?)")
			}
			sp := e.trace.Begin("eco-min-pass", 0)
			early, slews, earlyChanged, err := e.minPassSeeded(prev, seed, eco)
			sp.End()
			if err != nil {
				return nil, 0, err
			}
			if !e.opts.DisableReplay {
				e.replayEarly, e.replaySlews = early, slews
			}
			e.earliestStart = startTimes(early, slews)
			// A moved earliest-activity bound re-opens the window pruning
			// question for every coupled victim of that net, in every
			// refinement pass. The dedup bitset is session scratch (ids
			// are dense), cleared after use by walking the victims.
			seen := e.getSeenBits()
			for i, ch := range earlyChanged {
				if !ch {
					continue
				}
				lo, hi := e.cc.Span(netlist.NetID(i + 1))
				for k := lo; k < hi; k++ {
					other := e.cc.Nbr[k]
					if !seen[other-1] {
						seen[other-1] = true
						earlyVictims = append(earlyVictims, other)
					}
				}
			}
			for _, v := range earlyVictims {
				seen[v-1] = false
			}
		} else {
			e.earliestStart = nil
		}
	}

	firstMode := mode
	if mode == Iterative {
		firstMode = OneStep
	}
	e.finalQuietPrev, e.finalPassMode = nil, firstMode
	ec := e.newEcoPass(prev, 0, seed)
	ph := e.beginPass(1, firstMode)
	st, err := e.passSeeded(firstMode, nil, ec)
	if err != nil {
		return nil, 0, err
	}
	delay := e.endPass(ph, st)
	e.accumulateECO(ec, eco)
	if mode != Iterative {
		return st, 1, nil
	}
	passes := 1
	prevEc := ec
	for passes < maxPasses {
		ec := e.newEcoPass(prev, passes, seed)
		e.seedRefinementDirty(ec, prevEc.changed, earlyVictims)
		e.putEcoPass(prevEc)
		qp := snapshotQuiet(st)
		e.finalQuietPrev, e.finalPassMode = qp, Iterative
		ph := e.beginPass(passes+1, Iterative)
		st2, err := e.passSeeded(Iterative, qp, ec)
		if err != nil {
			return nil, 0, err
		}
		passes++
		newDelay := e.endPass(ph, st2)
		e.accumulateECO(ec, eco)
		e.putState(st)
		st = st2
		prevEc = ec
		if newDelay >= delay-1e-12 {
			break
		}
		delay = newDelay
	}
	e.putEcoPass(prevEc)
	return st, passes, nil
}

// ecoPass tracks one seeded sweep's dirty and diverged sets. dirty is
// grown concurrently (each cell's done callback expands from its own
// diverged output, possibly on a worker goroutine), so its bits are
// atomic; every expansion provably targets a cell that has not started
// yet — fanout sinks and pass-1 coupling victims have strictly higher
// rank, so the scheduler's dependency/level edges order the mark before
// the read. changed is written by at most one goroutine per index (the
// cell owner) and only read by callbacks ordered after that write.
type ecoPass struct {
	// orig is the stored state of the matching pass (nil once the
	// seeded run outlives the stored trajectory; every net is then
	// recomputed, which remains exact).
	orig    []netState
	dirty   []atomic.Bool
	changed []bool
	// pass1 enables the one-step victim rule: a diverged net's
	// higher-rank coupled victims read its current-pass quiescent time
	// and must re-classify.
	pass1           bool
	expansions      atomic.Int64
	dirtyN, reusedN atomic.Int64
}

func (e *Engine) newEcoPass(prev *ReplayState, passIdx int, seed []bool) *ecoPass {
	mode := e.opts.Mode
	ec := e.getEcoPass()
	ec.pass1 = passIdx == 0 && (mode == OneStep || mode == Iterative)
	if passIdx < len(prev.passes) {
		ec.orig = prev.passes[passIdx]
		for i, s := range seed {
			if s {
				ec.dirty[i].Store(true)
			}
		}
	} else {
		ec.markAll()
	}
	return ec
}

func (ec *ecoPass) markAll() {
	for i := range ec.dirty {
		ec.dirty[i].Store(true)
	}
}

// newDeltaPass builds the delta-convergent refinement seeding for an
// in-run Iterative pass: the engine's own previous pass plays the role
// of the stored trajectory, and the dirty frontier is exactly the set
// of lines whose reads could differ from that pass — the coupled
// victims of last-pass changes (quietPrev readers; plus self re-reads
// under Windows), grown in-pass by the fanout of anything that
// diverges. prevChanged == nil marks a pass that must recompute fully
// (pass 2: the classifier switches from the one-step rule to stored
// quiescent times, and Windows pruning activates, so every line's
// evalArc inputs change shape).
func (e *Engine) newDeltaPass(prevSt []netState, prevChanged []bool) *ecoPass {
	ec := e.getEcoPass()
	ec.orig = prevSt
	if prevChanged == nil {
		ec.markAll()
	} else {
		e.seedRefinementDirty(ec, prevChanged, nil)
	}
	return ec
}

// mark adds a net to the dirty set, counting growth beyond the seeds.
// Safe from any goroutine; first marker wins the count.
func (ec *ecoPass) mark(id netlist.NetID) {
	if ec.dirty[id-1].Swap(true) {
		return
	}
	ec.expansions.Add(1)
}

// ecoExpand grows the dirty set from a net whose recomputed state
// diverged: the cells it feeds, the flip-flops it clocks, and — in the
// first pass — its higher-rank coupled victims (which read its
// current-pass quiescent time through the one-step rule).
func (e *Engine) ecoExpand(ec *ecoPass, net netlist.NetID) {
	n := e.C.Net(net)
	for _, pr := range n.Fanout {
		sink := e.C.Cell(pr.Cell)
		if sink.Kind == netlist.DFF || sink.Out == netlist.NoNet {
			continue
		}
		ec.mark(sink.Out)
	}
	for _, cid := range e.clockSinksOf(net) {
		ec.mark(e.C.Cell(cid).Out)
	}
	if ec.pass1 {
		lo, hi := e.cc.Span(net)
		for k := lo; k < hi; k++ {
			if other := e.cc.Nbr[k]; e.netRank[other] > e.netRank[net] {
				ec.mark(other)
			}
		}
	}
}

// seedRefinementDirty initializes a refinement pass's dirty set beyond
// the edit seeds: every coupled victim of a net that diverged in the
// previous pass re-reads its quiescent time through quietPrev (any
// rank), and with Windows active a diverged net also re-reads its own
// previous-pass quiet (the victim sensitivity bound) while victims of
// moved earliest-activity bounds re-run the pruning test.
func (e *Engine) seedRefinementDirty(ec *ecoPass, prevChanged []bool, earlyVictims []netlist.NetID) {
	if ec.orig == nil {
		return // already fully dirty
	}
	for i, ch := range prevChanged {
		if !ch {
			continue
		}
		id := netlist.NetID(i + 1)
		lo, hi := e.cc.Span(id)
		for k := lo; k < hi; k++ {
			ec.mark(e.cc.Nbr[k])
		}
		if e.opts.Windows {
			ec.mark(id)
		}
	}
	if e.opts.Windows {
		for _, v := range earlyVictims {
			ec.mark(v)
		}
	}
}

// sameNetState compares the observable per-pass state (pred excluded:
// it is derived deterministically from the same inputs, so equal values
// imply an equal-arrival predecessor choice either way).
func sameNetState(a, b *netState) bool {
	return a.arrival == b.arrival && a.slew == b.slew && a.quiet == b.quiet &&
		a.calculated == b.calculated
}

func freshNetState() netState {
	return netState{
		arrival: [2]float64{math.Inf(-1), math.Inf(-1)},
		quiet:   [2]float64{math.Inf(-1), math.Inf(-1)},
	}
}

// passSeeded is pass() with replay seeding: clean nets carry the stored
// pass state, dirty nets are recomputed in place, and nets whose
// recomputed state diverges grow the dirty set through their cell's
// done callback — which both schedulers order before any dependent
// cell starts (see dataflow.go).
func (e *Engine) passSeeded(mode Mode, quietPrev [][2]float64, ec *ecoPass) ([]netState, error) {
	c := e.C
	st := e.getState()
	if ec.orig != nil {
		copy(st, ec.orig)
		for i := range st {
			if ec.dirty[i].Load() {
				st[i] = freshNetState()
			}
		}
	} else {
		for i := range st {
			st[i] = freshNetState()
		}
	}

	// Primary inputs are reseeded unconditionally (cheap); a slew edit
	// shows up as divergence and dirties the fan-out.
	for _, pi := range c.PIs {
		slew := e.piSlewFor(pi)
		var ns netState
		for d := 0; d < 2; d++ {
			ns.arrival[d] = 0
			ns.slew[d] = slew
			ns.quiet[d] = slew / 2
		}
		ns.calculated = true
		st[pi-1] = ns
		if ec.orig != nil && !sameNetState(&ns, &ec.orig[pi-1]) {
			ec.changed[pi-1] = true
			e.ecoExpand(ec, pi)
		}
	}

	doCell := func(cell *netlist.Cell) error {
		out := cell.Out
		if ec.orig != nil && !ec.dirty[out-1].Load() {
			ec.reusedN.Add(1)
			return nil
		}
		ec.dirtyN.Add(1)
		if err := e.processCell(mode, st, quietPrev, nil, cell); err != nil {
			return err
		}
		if ec.orig != nil && !sameNetState(&st[out-1], &ec.orig[out-1]) {
			ec.changed[out-1] = true
		}
		return nil
	}
	// done grows the dirty set from a diverged output. Every mark
	// targets a strictly higher-rank net (fanout sinks, pass-1 coupling
	// victims) or a phase-separated DFF launch, so the marked cell has
	// not started under either scheduler.
	done := func(cid netlist.CellID) {
		out := c.Cell(cid).Out
		if ec.changed[out-1] {
			e.ecoExpand(ec, out)
		}
	}
	if err := e.runPhase(phaseClock, doCell, done); err != nil {
		return nil, err
	}

	// Flip-flop launches: a clean Q keeps the stored state (its launch
	// reads only the clock arrival, which did not diverge — otherwise
	// clockSinks expansion would have dirtied it).
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		out := cell.Out
		if ec.orig != nil && !ec.dirty[out-1].Load() {
			ec.reusedN.Add(1)
			continue
		}
		ec.dirtyN.Add(1)
		launch := ccc.DFFClkToQ()
		if cell.Clock != netlist.NoNet {
			cs := &st[cell.Clock-1]
			if cs.calculated && !math.IsInf(cs.arrival[dirRise], -1) {
				launch += cs.arrival[dirRise] + e.sink.ClockDelay[cell.ID]
			}
		}
		s := &st[out-1]
		for d := 0; d < 2; d++ {
			if launch > s.arrival[d] {
				s.arrival[d] = launch
				s.slew[d] = e.opts.DFFOutSlew
				s.quiet[d] = launch + e.opts.DFFOutSlew/2
				s.pred[d] = arcPred{} // launch point
			}
		}
		s.calculated = true
		if ec.orig != nil && !sameNetState(s, &ec.orig[out-1]) {
			ec.changed[out-1] = true
			e.ecoExpand(ec, out)
		}
	}

	if err := e.runPhase(phaseMain, doCell, done); err != nil {
		return nil, err
	}
	return st, nil
}

// accumulateECO folds one pass's dirty/reuse tallies into the run stats
// and the metrics registry (driver goroutine, at the pass barrier).
func (e *Engine) accumulateECO(ec *ecoPass, eco *ECOStats) {
	d, r, x := ec.dirtyN.Load(), ec.reusedN.Load(), ec.expansions.Load()
	eco.DirtyLines += d
	eco.ReusedLines += r
	eco.ConeExpansions += x
	e.m.ecoDirty.Add(d)
	e.m.ecoReused.Add(r)
	e.m.ecoExpansions.Add(x)
}
