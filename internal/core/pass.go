package core

import (
	"math"

	"xtalksta/internal/ccc"
	"xtalksta/internal/coupling"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
)

// passSeeded performs one breadth-first timing sweep (§4/§5) against a
// baseline. The mode fixes how coupling caps enter each arc's load:
//
//   - quietPrev == nil: first pass (or single-pass modes). In OneStep,
//     neighbors not yet calculated in this pass couple (worst case).
//   - quietPrev != nil: refinement pass (Iterative). Every neighbor has
//     a stored quiescent time, so no uncalculated-wire assumption is
//     needed (§5.2).
//
// ec names the baseline (see ecoPass). Without one every line is
// computed from scratch. Otherwise clean lines carry the baseline state
// and dirty lines are recomputed in place; unless the dirty set is fixed
// (Esperance), a line whose recomputed state diverges from the baseline
// grows the dirty set through its cell's done callback, which both
// schedulers order before any dependent cell starts (see dataflow.go).
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
	track := ec.tracks()

	// Seed primary inputs: both transitions can occur at t = 0 with the
	// configured board-level slew. Reseeded unconditionally (cheap); a
	// slew edit shows up as divergence and dirties the fan-out.
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
		if track && !sameNetState(&ns, &ec.orig[pi-1]) {
			ec.changed[pi-1] = true
			e.ecoExpand(ec, pi)
		}
	}

	doCell := func(cell *netlist.Cell) error {
		out := cell.Out
		if ec.clean(out) {
			ec.reusedN.Add(1)
			return nil
		}
		ec.dirtyN.Add(1)
		if err := e.processCell(mode, st, quietPrev, cell); err != nil {
			return err
		}
		if track && !sameNetState(&st[out-1], &ec.orig[out-1]) {
			ec.changed[out-1] = true
		}
		return nil
	}
	// done grows the dirty set from a diverged output. Every mark
	// targets a strictly higher-rank net (fanout sinks, pass-1 coupling
	// victims) or a phase-separated DFF launch, so the marked cell has
	// not started under either scheduler.
	var done func(cid netlist.CellID)
	if track {
		done = func(cid netlist.CellID) {
			out := c.Cell(cid).Out
			if ec.changed[out-1] {
				e.ecoExpand(ec, out)
			}
		}
	}

	// Phase 1: clock tree (cells whose output is a clock net), level
	// by level. Clock nets behave like any other net for coupling
	// purposes.
	if err := e.runPhase(phaseClock, doCell, done); err != nil {
		return nil, err
	}

	// Seed flip-flop outputs: launched by the rising clock edge at the
	// flip-flop's clock-pin arrival plus clock-to-Q. A clean Q under a
	// growing dirty set keeps its baseline state (its launch reads only
	// the clock arrival, which did not diverge — otherwise clockSinks
	// expansion would have dirtied it); Esperance re-applies every launch
	// on top of the carried state.
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF {
			continue
		}
		out := cell.Out
		if ec.clean(out) && !ec.fixed {
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
		if track && !sameNetState(s, &ec.orig[out-1]) {
			ec.changed[out-1] = true
			e.ecoExpand(ec, out)
		}
	}

	// Phase 2: combinational sweep.
	if err := e.runPhase(phaseMain, doCell, done); err != nil {
		return nil, err
	}
	return st, nil
}

// processCell evaluates all timing arcs of one cell and updates its
// output net's state.
func (e *Engine) processCell(mode Mode, st []netState, quietPrev [][2]float64, cell *netlist.Cell) error {
	out := cell.Out
	s := &st[out-1]
	inf := &e.info[out-1]
	e.passRecalc.Add(1)
	e.m.recalcWires.Inc()

	for dOut := 0; dOut < 2; dOut++ {
		dIn := 1 - dOut // inverting primitives
		bestArr := math.Inf(-1)
		bestSlew := 0.0
		bestPred := arcPred{}
		quiet := math.Inf(-1)
		for pin, inNet := range cell.In {
			is := &st[inNet-1]
			if !is.calculated || math.IsInf(is.arrival[dIn], -1) {
				continue
			}
			inArr := is.arrival[dIn]
			if !e.opts.PiModel {
				// Lumped model: the wire delay to this pin is the
				// Elmore term (paper §2); with the π-model the arrival
				// is already at the receiving end.
				inArr += e.sink.At(cell.ID, pin)
			}
			inSlew := is.slew[dIn]
			if inSlew <= 0 {
				inSlew = e.opts.PISlew
			}
			res, err := e.evalArc(mode, st, quietPrev, cell, pin, dOut, inArr, inSlew)
			if err != nil {
				return err
			}
			// Pin order with a strict comparison: the first pin wins ties.
			arr := inArr + res.Delay
			if arr > bestArr {
				bestArr = arr
				bestSlew = res.OutSlew
				bestPred = arcPred{valid: true, cell: cell.ID, fromNet: inNet, fromDir: dIn}
			}
			if done := inArr + res.Completion; done > quiet {
				quiet = done
			}
		}
		if !math.IsInf(bestArr, -1) {
			s.arrival[dOut] = bestArr
			s.slew[dOut] = bestSlew
			s.quiet[dOut] = quiet
			if !e.opts.PiModel {
				s.quiet[dOut] += inf.maxSinkElmore
			}
			s.pred[dOut] = bestPred
		}
	}
	s.calculated = true
	return nil
}

// arcRequest builds the delay request of one arc of cell (input pin,
// output switching dOut) with the given grounded load and actively
// coupling capacitance. The grounded load is split between the
// request's near and far fields by the wire model. Lumped (paper):
// everything in CLoad. π-model extension: half the wire cap stays at the
// driver, the rest moves behind the wire resistance.
func (e *Engine) arcRequest(cell *netlist.Cell, pin, dOut int, inSlew, grounded, cc float64) delaycalc.Request {
	inf := &e.info[cell.Out-1]
	r := delaycalc.Request{
		Kind:     cell.Kind,
		NIn:      len(cell.In),
		Pin:      pin,
		Dir:      dirOf(dOut),
		InSlew:   inSlew,
		SizeMult: inf.sizeMult,
		CCouple:  cc,
	}
	if e.opts.PiModel && inf.rwire > 0 {
		r.CLoad = inf.cwire / 2
		r.CFar = grounded - inf.cwire/2
		r.RWire = inf.rwire
	} else {
		r.CLoad = grounded
	}
	return r
}

// quietRequest is the arc's all-quiet request: every coupling cap
// grounded at face value. It is the BestCase treatment and the §5.1
// best-case waveform that fixes t_bcs.
func (e *Engine) quietRequest(cell *netlist.Cell, pin, dOut int, inSlew float64) delaycalc.Request {
	inf := &e.info[cell.Out-1]
	return e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+inf.sumCc, 0)
}

// staticRequest is the arc's request under the fixed coupling
// treatments of StaticDoubled (caps grounded at twice their value) and
// WorstCase (every cap couples actively); any other mode gets the
// all-quiet request.
func (e *Engine) staticRequest(mode Mode, cell *netlist.Cell, pin, dOut int, inSlew float64) delaycalc.Request {
	inf := &e.info[cell.Out-1]
	switch mode {
	case StaticDoubled:
		return e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+2*inf.sumCc, 0)
	case WorstCase:
		return e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap, inf.sumCc)
	}
	return e.quietRequest(cell, pin, dOut, inSlew)
}

// evalArc computes one timing arc under the mode's coupling treatment.
func (e *Engine) evalArc(mode Mode, st []netState, quietPrev [][2]float64,
	cell *netlist.Cell, pin, dOut int, inArr, inSlew float64) (delaycalc.Result, error) {

	inf := &e.info[cell.Out-1]
	if (mode != OneStep && mode != Iterative) || inf.sumCc == 0 {
		return e.Calc.Eval(e.staticRequest(mode, cell, pin, dOut, inSlew))
	}
	// Step 1 (§5.1): best-case waveform with all neighbors quiet fixes
	// t_bcs — the earliest the victim could reach Vth. The request
	// depends only on (cell, pin, dir, inSlew), so refinement passes
	// whose input slew is unchanged reuse the stored result.
	bcsRes, err := e.evalBCS(cell, pin, dOut, inSlew, e.quietRequest(cell, pin, dOut, inSlew))
	if err != nil {
		return delaycalc.Result{}, err
	}
	// Step 2: classify each adjacent wire.
	ccActive, t := e.activeCoupling(st, quietPrev, cell.Out, dOut, inArr+bcsRes.TimeToRestart, nil)
	e.m.couplingActive.Add(t.active)
	e.m.couplingWindowPruned.Add(t.pruned)
	e.m.couplingGrounded.Add(t.grounded)
	if ccActive == 0 {
		// Every neighbor is quiet: the worst-case request would carry
		// the full coupling capacitance grounded — electrically the
		// best-case request already computed. Skip the second Eval.
		e.m.ccZeroSkips.Inc()
		return bcsRes, nil
	}
	// Step 3: worst-case waveform with the active subset coupling.
	return e.Calc.Eval(e.arcRequest(cell, pin, dOut, inSlew, inf.baseCap+(inf.sumCc-ccActive), ccActive))
}

// couplingTally counts one arc's neighbor verdicts.
type couplingTally struct{ active, pruned, grounded int64 }

// activeCoupling is the OneStep/Iterative coupling classifier: for an
// arc of net out switching dOut whose best-case waveform reaches Vth at
// tBCS, each coupled neighbor that can still switch opposite after tBCS
// (or, in a first pass, is not yet calculated) couples actively. It
// returns the active capacitance and the verdict tally; with aggs
// non-nil the active neighbors are appended to it.
func (e *Engine) activeCoupling(st []netState, quietPrev [][2]float64, out netlist.NetID, dOut int,
	tBCS float64, aggs *[]AttributionAggressor) (float64, couplingTally) {

	inf := &e.info[out-1]
	dAggressor := 1 - dOut // opposite transition couples
	// Windows extension: the victim is only sensitive until its own
	// previous-pass quiescent time.
	windows := e.earliestStart != nil && quietPrev != nil
	victimQuiet := math.Inf(1)
	if windows {
		if q := quietPrev[out-1][dOut]; !math.IsInf(q, -1) {
			victimQuiet = q
		}
	}
	var t couplingTally
	ccActive := 0.0
	ccNbr, ccC := e.cc.Nbr, e.cc.C
	for k := inf.ccLo; k < inf.ccHi; k++ {
		other := ccNbr[k]
		var calculated bool
		var quietAt float64
		if quietPrev != nil {
			// Refinement pass: every neighbor has a stored quiescent
			// time (−Inf when it never switches that way, so it cannot
			// couple).
			calculated, quietAt = true, quietPrev[other-1][dAggressor]
		} else {
			// Level-based rule (order-independent; see parallel.go):
			// a neighbor is calculated when its driver's level is
			// strictly below this cell's, so its state is frozen.
			calculated = e.netCalculatedAt(other, e.netRank[out])
			if calculated {
				quietAt = st[other-1].quiet[dAggressor]
			}
		}
		switch {
		case !coupling.ShouldCouple(calculated, quietAt, tBCS):
			t.grounded++
		case windows && e.earliestStart[other-1][dAggressor] >= victimQuiet:
			// Windows extension: an aggressor that cannot become
			// active before the victim is done cannot couple.
			t.pruned++
		default:
			ccActive += ccC[k]
			t.active++
			if aggs != nil {
				*aggs = append(*aggs, AttributionAggressor{Net: e.C.Net(other).Name, C: ccC[k]})
			}
		}
	}
	return ccActive, t
}

// bcsEntry is one cached best-case arc result (see Engine.bcs).
type bcsEntry struct {
	inSlew float64
	res    delaycalc.Result
	valid  bool
}

// evalBCS evaluates the best-case (all-quiet) arc request, reusing the
// result stored by an earlier pass when the exact input slew repeats —
// the §5.2 refinement loop otherwise pays two evaluator calls per arc
// per pass. The reuse decision depends only on per-arc values, so
// parallel and sequential sweeps skip identically.
func (e *Engine) evalBCS(cell *netlist.Cell, pin, dOut int, inSlew float64, req delaycalc.Request) (delaycalc.Result, error) {
	if e.bcs == nil {
		return e.Calc.Eval(req)
	}
	slot := &e.bcs[cell.Out-1][pin*2+dOut]
	if slot.valid && slot.inSlew == inSlew {
		e.m.tbcsHits.Inc()
		return slot.res, nil
	}
	res, err := e.Calc.Eval(req)
	if err != nil {
		return res, err
	}
	*slot = bcsEntry{inSlew: inSlew, res: res, valid: true}
	return res, nil
}
