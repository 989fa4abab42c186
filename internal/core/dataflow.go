package core

import (
	"sync"
	"sync/atomic"
	"time"

	"xtalksta/internal/netlist"
)

// Dataflow wavefront scheduling.
//
// The level-synchronized executor (parallel.go) barriers after every
// topological level, so the slowest cell of each level stalls every
// worker. The wavefront executor instead releases a cell as soon as the
// cells it actually reads have finished. Two kinds of cross-cell reads
// exist during a sweep (see the level-rule comment in parallel.go):
//
//	(a) fanin: processCell reads the input nets' states, written by the
//	    cells driving them;
//	(b) coupling: the one-step rule (evalArc, quietPrev == nil) reads
//	    the quiescent time of a coupled neighbor exactly when
//	    netCalculatedAt says the neighbor counts as calculated — i.e.
//	    its rank is strictly below the victim's. Refinement passes read
//	    quietPrev (frozen last-pass data) instead and need no edge.
//
// A cell therefore depends on the in-phase driver cells of its fanin
// nets AND of its lower-rank coupled neighbors; the dependency edges of
// one phase form a DAG (every edge goes from a lower-rank output to a
// higher-rank one). Because netCalculatedAt is rank-based rather than
// completion-based, both schedulers classify every neighbor identically
// and the numeric results are bit-identical — the edges only guarantee
// that a state counted as calculated is fully written before it is
// read. PI seeds, the DFF launch seeding and cross-phase reads are
// satisfied by the sequential phase structure (clock phase completes
// before launch seeding, which completes before the main phase).
//
// Memory model: each dependency counter is decremented with an atomic
// RMW; the worker that observes zero has a happens-before edge from
// every predecessor's final state write (and done callback), so no
// additional locking is needed around the per-net states.

// Scheduler selects the sweep executor (Options.Scheduler).
type Scheduler int

const (
	// SchedDataflow pipelines cells through a wavefront of dependency
	// counters (the default).
	SchedDataflow Scheduler = iota
	// SchedLevels barriers after every topological level (the reference
	// implementation; see parallel.go).
	SchedLevels
)

// String names the scheduler in metric labels, event records and bench
// environments.
func (s Scheduler) String() string {
	switch s {
	case SchedDataflow:
		return "dataflow"
	case SchedLevels:
		return "levels"
	}
	return "unknown"
}

// Phase labels shared by both executors' trace spans.
const (
	phaseClock = "clock"
	phaseMain  = "main"
)

// dfGraph is the per-phase dependency DAG in CSR form. Node i evaluates
// cells[i]; succ[succOff[i]:succOff[i+1]] lists the nodes unblocked by
// its completion; indeg[i] is the number of in-phase dependencies;
// roots are the nodes with none.
type dfGraph struct {
	cells   []netlist.CellID
	indeg   []int32
	succOff []int32
	succ    []int32
	roots   []int32
}

// buildDataflow constructs the per-phase dependency graphs (NewEngine,
// after buildLevels — the edges need netRank).
func (e *Compiled) buildDataflow() {
	e.dfClock = e.buildPhaseGraph(e.clockLevels)
	e.dfMain = e.buildPhaseGraph(e.mainLevels)
}

func (e *Compiled) buildPhaseGraph(levels [][]netlist.CellID) *dfGraph {
	g := &dfGraph{}
	for _, level := range levels {
		g.cells = append(g.cells, level...)
	}
	n := len(g.cells)
	g.indeg = make([]int32, n)
	g.succOff = make([]int32, n+1)
	if n == 0 {
		return g
	}
	// nodeOf maps a cell to its node index; -1 for cells outside this
	// phase (their writes are frozen before the phase starts).
	nodeOf := make([]int32, len(e.C.Cells))
	for i := range nodeOf {
		nodeOf[i] = -1
	}
	for i, cid := range g.cells {
		nodeOf[cid] = int32(i)
	}
	// preds collects the deduplicated in-phase dependency nodes of one
	// cell: fanin drivers (edge a) and drivers of coupled neighbors the
	// rank rule counts as calculated (edge b).
	var preds []int32
	collect := func(cell *netlist.Cell) []int32 {
		preds = preds[:0]
		add := func(net netlist.NetID) {
			d := e.C.Net(net).Driver
			if d == netlist.NoCell {
				return
			}
			p := nodeOf[d]
			if p < 0 {
				return
			}
			for _, q := range preds {
				if q == p {
					return
				}
			}
			preds = append(preds, p)
		}
		for _, in := range cell.In {
			add(in)
		}
		outRank := e.netRank[cell.Out]
		inf := &e.info[cell.Out-1]
		for k := inf.ccLo; k < inf.ccHi; k++ {
			if other := e.cc.Nbr[k]; e.netCalculatedAt(other, outRank) {
				add(other)
			}
		}
		return preds
	}
	// CSR in two sweeps: count successor degrees, then fill.
	for i, cid := range g.cells {
		ps := collect(e.C.Cell(cid))
		g.indeg[i] = int32(len(ps))
		for _, p := range ps {
			g.succOff[p+1]++
		}
	}
	for i := 0; i < n; i++ {
		g.succOff[i+1] += g.succOff[i]
	}
	g.succ = make([]int32, g.succOff[n])
	fill := make([]int32, n)
	for i, cid := range g.cells {
		for _, p := range collect(e.C.Cell(cid)) {
			g.succ[g.succOff[p]+fill[p]] = int32(i)
			fill[p]++
		}
	}
	for i := 0; i < n; i++ {
		if g.indeg[i] == 0 {
			g.roots = append(g.roots, int32(i))
		}
	}
	return g
}

// runPhase executes one sweep phase under the configured scheduler.
// done, when non-nil, runs once per cell after do succeeds, on the
// goroutine that evaluated the cell, before any dependent cell starts
// (the seeded sweep grows its dirty set there; see eco.go).
func (e *Engine) runPhase(phase string, do func(cell *netlist.Cell) error, done func(cid netlist.CellID)) error {
	t0 := time.Now()
	defer func() {
		e.m.phaseDur.With(e.modeLabel(), phase).Observe(time.Since(t0).Seconds())
	}()
	if e.opts.Scheduler == SchedLevels {
		levels := e.clockLevels
		if phase == phaseMain {
			levels = e.mainLevels
		}
		run := do
		if done != nil {
			run = func(cell *netlist.Cell) error {
				if err := do(cell); err != nil {
					return err
				}
				done(cell.ID)
				return nil
			}
		}
		return e.runLevels(phase, levels, e.opts.Workers, run)
	}
	g := e.dfClock
	if phase == phaseMain {
		g = e.dfMain
	}
	return e.runDataflow(phase, g, e.opts.Workers, do, done)
}

// runDataflow drains one phase graph through a bounded worker pool.
// Each worker keeps a small LIFO stack of ready cells and spills to a
// shared queue when the stack fills or other workers are starved; a
// failing cell raises a stop flag that parks the whole pool.
func (e *Engine) runDataflow(phase string, g *dfGraph, workers int,
	do func(cell *netlist.Cell) error, done func(cid netlist.CellID)) error {

	n := len(g.cells)
	if n == 0 {
		return nil
	}
	span := e.trace.Begin("wavefront", 0).Arg("phase", phase).Arg("cells", n)
	runCell := func(node int32) error {
		cid := g.cells[node]
		if err := do(e.C.Cell(cid)); err != nil {
			return err
		}
		if done != nil {
			done(cid)
		}
		return nil
	}
	if workers <= 1 || n < 2*workers {
		// The graph's cells are stored in level order — a valid
		// topological order — so the sequential path needs no counters.
		e.m.seqCells.Add(int64(n))
		for i := 0; i < n; i++ {
			if err := runCell(int32(i)); err != nil {
				span.Arg("error", true).End()
				return err
			}
		}
		span.End()
		return nil
	}

	deps := make([]int32, n)
	copy(deps, g.indeg)
	var (
		mu        sync.Mutex
		shared    []int32
		waiters   atomic.Int32
		completed atomic.Int64
		stop      atomic.Bool
		wg        sync.WaitGroup
	)
	cond := sync.NewCond(&mu)
	// finish parks the pool: stop is set under the mutex so a worker
	// cannot check it, miss the Broadcast, and then sleep forever.
	finish := func() {
		mu.Lock()
		stop.Store(true)
		cond.Broadcast()
		mu.Unlock()
	}
	errs := make([]error, workers)
	const localCap = 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wspan := e.trace.Begin("worker", w+1).Arg("phase", phase)
			cells, steals := 0, int64(0)
			defer func() {
				e.m.workerCells.Add(int64(cells))
				e.m.schedSteals.Add(steals)
				wspan.Arg("cells", cells).End()
			}()
			var local []int32
			// share moves a ready node to the shared queue (stack full,
			// or another worker is parked waiting for work).
			share := func(node int32) {
				mu.Lock()
				shared = append(shared, node)
				e.m.schedReadyDepth.Observe(float64(len(shared)))
				mu.Unlock()
				cond.Signal()
			}
			for i := w; i < len(g.roots); i += workers {
				local = append(local, g.roots[i])
			}
			for {
				if stop.Load() {
					return
				}
				var node int32
				if len(local) > 0 {
					node = local[len(local)-1]
					local = local[:len(local)-1]
				} else {
					mu.Lock()
					for len(shared) == 0 && !stop.Load() {
						waiters.Add(1)
						cond.Wait()
						waiters.Add(-1)
					}
					if stop.Load() || len(shared) == 0 {
						mu.Unlock()
						return
					}
					node = shared[len(shared)-1]
					shared = shared[:len(shared)-1]
					mu.Unlock()
					steals++
				}
				if err := runCell(node); err != nil {
					errs[w] = err
					finish()
					return
				}
				cells++
				// Release successors; keep the first ready one local
				// (depth-first keeps caches warm), share the rest when
				// someone is starved or the stack is full.
				kept := false
				for j := g.succOff[node]; j < g.succOff[node+1]; j++ {
					s := g.succ[j]
					if atomic.AddInt32(&deps[s], -1) != 0 {
						continue
					}
					if !kept && len(local) < localCap && waiters.Load() == 0 {
						local = append(local, s)
						kept = true
					} else {
						share(s)
					}
				}
				if completed.Add(1) == int64(n) {
					finish()
					return
				}
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
	return nil
}
