package core

import (
	"sync"
	"sync/atomic"

	"xtalksta/internal/netlist"
)

// Level-synchronized processing.
//
// Cells are grouped into topological levels (separately for the clock
// tree and the main combinational phase). Within a level no cell feeds
// another, so cells of one level can be evaluated concurrently; the
// only cross-cell reads during a level are (a) input-net states from
// strictly earlier levels, which are frozen, and (b) the one-step
// rule's "is the neighbor calculated yet" test, which is defined in
// terms of LEVELS (a neighbor is calculated when its driver's level is
// lower) rather than sequential processing order. That definition makes
// the one-step analysis independent of cell enumeration order — the
// same result sequentially and with any worker count — at the price of
// being infinitesimally more conservative than a fixed sequential order
// within a level (same-level neighbors are worst-cased, which the
// paper's rule permits).

// buildLevels computes per-cell levels for the two phases and per-net
// ranks for the calculated-neighbor test.
func (e *Compiled) buildLevels() {
	c := e.C
	// Net rank: seeds (PIs) are 0; a driven net is 1 + max rank of the
	// driving cell's inputs. Clock phase first, then DFF Q seeds, then
	// the main phase, with rank bands that keep the phases ordered.
	rank := make([]int, len(c.Nets)+1)
	for i := range rank {
		rank[i] = -1
	}
	for _, pi := range c.PIs {
		rank[pi] = 0
	}
	levelOfCell := func(cell *netlist.Cell) int {
		lv := 0
		for _, in := range cell.In {
			if r := rank[in]; r+1 > lv {
				lv = r + 1
			}
		}
		return lv
	}
	maxClock := 0
	var clockCells, mainCells []netlist.CellID
	for _, cid := range e.order {
		if c.Net(c.Cell(cid).Out).IsClock {
			clockCells = append(clockCells, cid)
		} else {
			mainCells = append(mainCells, cid)
		}
	}
	clockLevel := make(map[netlist.CellID]int, len(clockCells))
	for _, cid := range clockCells {
		cell := c.Cell(cid)
		lv := levelOfCell(cell)
		clockLevel[cid] = lv
		rank[cell.Out] = lv
		if lv > maxClock {
			maxClock = lv
		}
	}
	seedRank := maxClock + 1
	for _, cell := range c.Cells {
		if cell.Kind == netlist.DFF {
			rank[cell.Out] = seedRank
		}
	}
	mainLevel := make(map[netlist.CellID]int, len(mainCells))
	for _, cid := range mainCells {
		cell := c.Cell(cid)
		lv := levelOfCell(cell)
		if lv <= seedRank {
			lv = seedRank + 1
		}
		mainLevel[cid] = lv
		rank[cell.Out] = lv
	}
	group := func(cells []netlist.CellID, level map[netlist.CellID]int) [][]netlist.CellID {
		maxLv := 0
		for _, cid := range cells {
			if level[cid] > maxLv {
				maxLv = level[cid]
			}
		}
		out := make([][]netlist.CellID, maxLv+1)
		for _, cid := range cells {
			out[level[cid]] = append(out[level[cid]], cid)
		}
		return out
	}
	e.clockLevels = group(clockCells, clockLevel)
	e.mainLevels = group(mainCells, mainLevel)
	e.netRank = rank
}

// netCalculatedAt reports whether, while processing a cell whose output
// has the given rank, the neighbor net counts as already calculated.
func (e *Compiled) netCalculatedAt(neighbor netlist.NetID, outRank int) bool {
	r := e.netRank[neighbor]
	if r < 0 {
		return false // unreachable net: never calculated
	}
	return r < outRank
}

// runLevels executes the cells of each level, optionally with workers.
// phase labels the sweep ("clock" or "main") in trace spans. On error
// the claim loop raises an abort flag so idle workers stop claiming
// cells instead of draining the rest of the level.
func (e *Engine) runLevels(phase string, levels [][]netlist.CellID, workers int,
	do func(cell *netlist.Cell) error) error {
	for lv, level := range levels {
		if len(level) == 0 {
			continue
		}
		e.m.levels.Inc()
		e.m.levelCells.Observe(float64(len(level)))
		span := e.trace.Begin("level", 0).
			Arg("phase", phase).Arg("level", lv).Arg("cells", len(level))
		if workers <= 1 || len(level) < 2*workers {
			e.m.seqCells.Add(int64(len(level)))
			for _, cid := range level {
				if err := do(e.C.Cell(cid)); err != nil {
					span.Arg("error", true).End()
					return err
				}
			}
			span.End()
			continue
		}
		e.m.parallelLevels.Inc()
		var next int64 = -1
		var abort atomic.Bool
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wspan := e.trace.Begin("worker", w+1).
					Arg("phase", phase).Arg("level", lv)
				cells := 0
				defer func() {
					e.m.workerCells.Add(int64(cells))
					wspan.Arg("cells", cells).End()
				}()
				for {
					if abort.Load() {
						return
					}
					i := atomic.AddInt64(&next, 1)
					if i >= int64(len(level)) {
						return
					}
					if err := do(e.C.Cell(level[i])); err != nil {
						errs[w] = err
						abort.Store(true)
						return
					}
					cells++
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				span.Arg("error", true).End()
				return err
			}
		}
		span.End()
	}
	return nil
}
