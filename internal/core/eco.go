package core

import (
	"fmt"
	"math"
	"sync/atomic"

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
	return e.run(prev, seed)
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
		e.fanoutLines(net, mark)
	}
	e.m.ecoExpansions.Add(eco.ConeExpansions)
	e.coneQueue = queue[:0]
	return cone
}

// ecoPass is the baseline of one sweep and its dirty and diverged sets.
// A sweep runs against one of three baselines:
//
//   - none (orig == nil): the first pass of a cold run, or a pass the
//     run cannot seed; every line is computed from scratch;
//   - the run's own previous pass: delta refinement (newDeltaPass) and
//     Esperance's carry-over of non-critical nets (newCarryPass);
//   - a stored revision's matching pass (newEcoPass, RunSeeded).
//
// dirty is grown concurrently (each cell's done callback expands from
// its own diverged output, possibly on a worker goroutine), so its bits
// are atomic; every expansion provably targets a cell that has not
// started yet — fanout sinks and pass-1 coupling victims have strictly
// higher rank, so the scheduler's dependency/level edges order the mark
// before the read. changed is written by at most one goroutine per
// index (the cell owner) and only read by callbacks ordered after that
// write.
type ecoPass struct {
	orig    []netState
	dirty   []atomic.Bool
	changed []bool
	// fixed marks Esperance's carry-over: the dirty set is the critical
	// mask and does not grow, and divergence is not tracked.
	fixed bool
	// pass1 enables the one-step victim rule: a diverged net's
	// higher-rank coupled victims read its current-pass quiescent time
	// and must re-classify.
	pass1           bool
	expansions      atomic.Int64
	dirtyN, reusedN atomic.Int64
}

// clean reports whether net id carries the baseline state.
func (ec *ecoPass) clean(id netlist.NetID) bool {
	return ec.orig != nil && !ec.dirty[id-1].Load()
}

// tracks reports whether the sweep records divergence from its baseline
// and grows the dirty set from it.
func (ec *ecoPass) tracks() bool { return ec.orig != nil && !ec.fixed }

// newEcoPass builds the baseline of sweep passIdx (0-based) against a
// stored revision: its matching stored pass with the edit seeds dirty.
// Without a revision (prev == nil: a cold run), or once the run
// outlives the stored trajectory, the sweep has no baseline and every
// line is recomputed, which remains exact.
func (e *Engine) newEcoPass(prev *ReplayState, passIdx int, seed []bool) *ecoPass {
	if prev == nil || passIdx >= len(prev.passes) {
		return &ecoPass{}
	}
	mode := e.opts.Mode
	ec := e.getEcoPass()
	ec.pass1 = passIdx == 0 && (mode == OneStep || mode == Iterative)
	ec.orig = prev.passes[passIdx]
	for i, s := range seed {
		if s {
			ec.dirty[i].Store(true)
		}
	}
	return ec
}

// newDeltaPass builds the delta-convergent refinement baseline for an
// in-run Iterative pass: the engine's own previous pass plays the role
// of the stored trajectory, and the dirty frontier is exactly the set
// of lines whose reads could differ from that pass — the coupled
// victims of last-pass changes (quietPrev readers; plus self re-reads
// under Windows), grown in-pass by the fanout of anything that
// diverges. A previous pass that tracked no divergence (pass 1, which
// has no baseline) forces a full recompute: in pass 2 the classifier
// switches from the one-step rule to stored quiescent times, and
// Windows pruning activates, so every line's evalArc inputs change
// shape.
func (e *Engine) newDeltaPass(prevSt []netState, prevEc *ecoPass) *ecoPass {
	ec := e.getEcoPass()
	ec.orig = prevSt
	if !prevEc.tracks() {
		for i := range ec.dirty {
			ec.dirty[i].Store(true)
		}
	} else {
		e.seedRefinementDirty(ec, prevEc.changed, nil)
	}
	return ec
}

// newCarryPass builds Esperance's refinement baseline: the run's
// previous pass with only the critical nets dirty. A skipped net keeps
// the previous pass's state, a valid (conservative) upper bound.
func (e *Engine) newCarryPass(prevSt []netState, critical []bool) *ecoPass {
	ec := e.getEcoPass()
	ec.orig = prevSt
	ec.fixed = true
	for i, c := range critical {
		if c {
			ec.dirty[i].Store(true)
		}
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
	e.fanoutLines(net, ec.mark)
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
