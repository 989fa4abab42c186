package core

import (
	"math"

	"xtalksta/internal/ccc"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
)

// Activity windows (extension beyond the paper).
//
// The paper's one-step rule uses only the *latest* activity bound: a
// neighbor couples when its quiescent time lies after the victim's
// earliest activity t_bcs. The complementary bound — a neighbor cannot
// couple before its own *earliest* possible activity — was out of the
// paper's scope and became standard in later SI timers (timing
// windows). With windows, an aggressor couples only when
//
//	[aggEarliestStart, aggQuiet]  ∩  [t_bcs, victimQuiet] ≠ ∅.
//
// The earliest bound below is computed with best-case (uncoupled) arc
// delays. A strictly sound lower bound would also credit same-direction
// coupling speedup; like production window-based timers, this trades a
// sliver of formal conservatism for bound tightness, and the golden
// path simulations in the test suite check the result stays an upper
// bound in practice.

// startTimes converts 50%-crossing arrivals to transition-start times
// (arrival − slew/2), leaving the raw inputs untouched.
func startTimes(early, slews [][2]float64) [][2]float64 {
	out := make([][2]float64, len(early))
	for i := range early {
		out[i] = early[i]
		for d := 0; d < 2; d++ {
			if !math.IsInf(out[i][d], 1) {
				out[i][d] -= slews[i][d] / 2
			}
		}
	}
	return out
}

// minPass computes the earliest 50% arrivals per (net, dir) and their
// slews, with best-case (uncoupled) arc delays, in the max pass's phase
// order: clock tree first, then flip-flop launches, then the rest. The
// raw arrivals are the form stored for replay seeding; startTimes turns
// them into earliest transition starts.
//
// Seeded from a stored revision (prev), clean lines keep the stored
// values and only the dirty set — the edit seeds, grown by the fan-out
// of every line whose values move — is re-evaluated; a cold run
// (prev == nil) is the same sweep over +Inf arrays with every line
// dirty. changed flags the nets whose bound moved: their coupled
// victims must re-run the window pruning test.
func (e *Engine) minPass(prev *ReplayState, seed []bool, eco *ECOStats) (early, slews [][2]float64, changed []bool, err error) {
	c := e.C
	n := len(c.Nets)
	early = make([][2]float64, n)
	slews = make([][2]float64, n)
	dirty := make([]bool, n)
	changed = make([]bool, n)
	if prev != nil {
		copy(early, prev.early)
		copy(slews, prev.slews)
		copy(dirty, seed)
	} else {
		for i := range early {
			early[i] = [2]float64{math.Inf(1), math.Inf(1)}
			dirty[i] = true
		}
	}
	var recomputed int64

	// settle stores a recomputed line and, when it moved, grows the
	// dirty set by the cells it feeds and the flip-flops it clocks.
	settle := func(net netlist.NetID, ne, ns [2]float64) {
		if early[net-1] == ne && slews[net-1] == ns {
			return
		}
		early[net-1], slews[net-1] = ne, ns
		changed[net-1] = true
		e.fanoutLines(net, func(id netlist.NetID) { dirty[id-1] = true })
	}
	for _, pi := range c.PIs {
		if dirty[pi-1] {
			slew := e.piSlewFor(pi)
			settle(pi, [2]float64{0, 0}, [2]float64{slew, slew})
		}
	}

	process := func(cell *netlist.Cell) error {
		out := cell.Out
		if !dirty[out-1] {
			return nil
		}
		recomputed++
		inf := &e.info[out-1]
		ne, ns := [2]float64{math.Inf(1), math.Inf(1)}, [2]float64{}
		for dOut := 0; dOut < 2; dOut++ {
			dIn := 1 - dOut
			for pin, inNet := range cell.In {
				if math.IsInf(early[inNet-1][dIn], 1) {
					continue
				}
				inArr := early[inNet-1][dIn]
				if !e.opts.PiModel {
					inArr += e.sink.At(cell.ID, pin)
				}
				inSlew := slews[inNet-1][dIn]
				if inSlew <= 0 {
					inSlew = e.opts.PISlew
				}
				// Fastest plausible conditions: coupling caps grounded
				// at face value (neighbors quiet), as a lumped load
				// under either wire model.
				res, err := e.Calc.Eval(delaycalc.Request{
					Kind: cell.Kind, NIn: len(cell.In), Pin: pin, Dir: dirOf(dOut),
					InSlew: inSlew, CLoad: inf.baseCap + inf.sumCc, SizeMult: inf.sizeMult,
				})
				if err != nil {
					return err
				}
				if a := inArr + res.Delay; a < ne[dOut] {
					ne[dOut] = a
					ns[dOut] = res.OutSlew
				}
			}
		}
		settle(out, ne, ns)
		return nil
	}

	for _, cid := range e.order {
		cell := c.Cell(cid)
		if !c.Net(cell.Out).IsClock {
			continue
		}
		if err := process(cell); err != nil {
			return nil, nil, nil, err
		}
	}
	for _, cell := range c.Cells {
		if cell.Kind != netlist.DFF || !dirty[cell.Out-1] {
			continue
		}
		recomputed++
		launch := ccc.DFFClkToQ()
		if cell.Clock != netlist.NoNet && !math.IsInf(early[cell.Clock-1][dirRise], 1) {
			launch += early[cell.Clock-1][dirRise] + e.sink.ClockDelay[cell.ID]
		}
		ne, ns := [2]float64{math.Inf(1), math.Inf(1)}, [2]float64{}
		for d := 0; d < 2; d++ {
			if launch < ne[d] {
				ne[d] = launch
				ns[d] = e.opts.DFFOutSlew
			}
		}
		settle(cell.Out, ne, ns)
	}
	for _, cid := range e.order {
		cell := c.Cell(cid)
		if c.Net(cell.Out).IsClock {
			continue
		}
		if err := process(cell); err != nil {
			return nil, nil, nil, err
		}
	}
	if eco != nil {
		eco.MinPassDirty += recomputed
	}
	return early, slews, changed, nil
}
