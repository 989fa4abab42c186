// Package core implements the paper's contribution: static timing
// analysis of synchronous circuits whose gate delays account for
// capacitive coupling. It provides the five analyses compared in the
// paper's evaluation (§6):
//
//	BestCase      — all coupling caps grounded at face value (coupling
//	                ignored; the paper's comparison baseline).
//	StaticDoubled — coupling caps grounded with doubled value (the
//	                classical passive approach).
//	WorstCase     — every coupling cap couples actively per the §2
//	                model (permanent worst-case coupling).
//	OneStep       — §5.1: per-arc best-case calculation fixes t_bcs;
//	                only neighbors that can still switch opposite after
//	                t_bcs (or are not yet calculated) couple actively.
//	Iterative     — §5.2: the one-step analysis repeated with stored
//	                quiescent times until the longest-path delay stops
//	                improving; optionally with the Esperance speedup
//	                (only wires on long paths are recalculated).
//
// All five guarantee an upper bound on the longest path delay; they
// differ in how tight that bound is and what it costs.
package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
	"xtalksta/internal/waveform"
)

// Mode selects the analysis.
type Mode int

// The five analyses of the paper's Tables 1–3.
const (
	BestCase Mode = iota
	StaticDoubled
	WorstCase
	OneStep
	Iterative
)

// String names the mode as in the paper's tables.
func (m Mode) String() string {
	switch m {
	case BestCase:
		return "Best case"
	case StaticDoubled:
		return "Static doubled"
	case WorstCase:
		return "Worst case"
	case OneStep:
		return "One step"
	case Iterative:
		return "Iterative"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Modes lists all analyses in table order.
func Modes() []Mode {
	return []Mode{BestCase, StaticDoubled, WorstCase, OneStep, Iterative}
}

// Options tunes an analysis run.
type Options struct {
	Mode Mode
	// Esperance enables the Benkoski-style speedup in Iterative mode:
	// refinement passes only recalculate wires whose esperance (arrival
	// + remaining path) reaches within esperanceMargin of the longest
	// path.
	Esperance bool
	// Windows (extension beyond the paper) adds the earliest-activity
	// bound to the Iterative refinement: an aggressor couples only when
	// its activity window overlaps the victim's sensitive window. See
	// windows.go.
	Windows bool
	// PiModel (extension beyond the paper) replaces the lumped-load +
	// Elmore wire treatment by a π-model per net: half the wire cap at
	// the driver, the wire resistance to a far node carrying the other
	// half plus the sink pins and coupling caps, with the delay
	// measured at the far (receiver) node — resistive shielding, the
	// limitation the paper's §2 explicitly concedes.
	PiModel bool
	// Workers evaluates cells concurrently when > 1. Results are
	// identical to the sequential run under either scheduler (the
	// one-step neighbor rule is rank-based, see parallel.go and
	// dataflow.go).
	Workers int
	// Scheduler selects the sweep executor: the dataflow wavefront
	// (default) pipelines cells as their dependencies complete, the
	// level-synchronized reference implementation barriers after every
	// topological level. Results are bit-identical; see dataflow.go.
	Scheduler Scheduler
	// DisableDeltaRefinement recomputes every line in every Iterative
	// refinement pass instead of only the frontier reachable from the
	// previous pass's changes (ablation; results are bit-identical, the
	// converged cones just recompute to the value they already hold).
	DisableDeltaRefinement bool
	// PISlew is the transition time assumed at primary inputs (default
	// 0.2 ns).
	PISlew float64
	// PISlews overrides the input transition time per primary input
	// (ECO input-slew edits); nets absent from the map use PISlew.
	PISlews map[netlist.NetID]float64
	// DFFOutSlew is the transition time of flip-flop outputs (default
	// 0.15 ns).
	DFFOutSlew float64
	// POCap is the load of a primary-output pad (default 30 fF).
	POCap float64
	// CellSizes overrides per-cell drive strength multipliers (default
	// 1; clock-tree buffers are additionally scaled by the library's
	// ClockBufMult). Used by the timing-driven sizing optimizer.
	CellSizes map[netlist.CellID]float64
	// DisableBCSReuse turns off the cross-pass best-case (t_bcs) arc
	// cache of the OneStep/Iterative modes (ablation). The cache is
	// exact — keyed on the unquantized input slew — so reuse never
	// changes results, only skips redundant evaluator calls.
	DisableBCSReuse bool
	// Tier0 and Tier0Margin have no effect: the analytic pre-bracket
	// tier they configured was retired and every arc now takes the one
	// exact path (cache, then Newton). They stay only so existing
	// callers compile, and go at the next benchmark change.
	Tier0       bool
	Tier0Margin float64
	// KeepCache is the one cold/warm choice of the facade's five-mode
	// sweep (AnalyzeAll, PaperTable): it keeps the shared
	// characterization cache across the modes instead of clearing it
	// before each. The default (false) matches the paper's tables:
	// every mode is timed standalone, re-characterizing from cold. A
	// warm sweep reports bit-identical delays from fewer simulations
	// (s35932 at scale 1, workers 2: 151,984 instead of 287,314), but
	// its per-mode runtimes are no longer standalone. The engine itself
	// never clears the cache.
	KeepCache bool
	// DisableReplay turns off the per-pass state capture that feeds
	// Result.Replay (the seed for RunSeeded). Analyses that never feed
	// an incremental re-run — optimizer inner loops, corner sweeps —
	// should disable it to avoid the per-pass state copies.
	DisableReplay bool
	// Corner labels the process corner the session analyzes under
	// ("TT" when empty). Purely observational: it tags the labeled
	// latency metrics and event-log records; the electrical corner is
	// fixed by the calculator.
	Corner string
	// Attribution builds Result.Attribution: the top-K endpoint paths
	// with per-arc gate/wire/coupling-slowdown contributions and the
	// surviving aggressor sets. Off by default — the build re-evaluates
	// the reported paths' arcs (cache-warm, but not free) after the
	// analysis proper; with it off the run is bit-identical to one
	// without the field.
	Attribution bool
	// AttributionTopK bounds the number of attributed endpoint paths
	// (default 10).
	AttributionTopK int
	// Events, when set, receives one structured JSONL record per
	// analysis, refinement pass and ECO batch (see obs.EventLog).
	Events *obs.EventLog
	// Metrics, when set, receives engine-wide counters (arc
	// evaluations, Newton iterations, coupling decisions, esperance
	// skips, per-level worker utilization, ...) under the obs.M* names.
	// Counters accumulate across runs sharing a registry.
	Metrics *obs.Registry
	// Trace, when set, receives per-pass/per-level/per-worker spans;
	// pair it with an obs.ChromeTrace sink to render the run as a
	// chrome://tracing timeline.
	Trace *obs.Tracer
	// Observer, when set, receives pass-progress callbacks on the
	// driver goroutine (see the Observer threading contract).
	Observer Observer
}

func (o Options) withDefaults() Options {
	if o.PISlew == 0 {
		o.PISlew = 0.2e-9
	}
	if o.DFFOutSlew == 0 {
		o.DFFOutSlew = 0.15e-9
	}
	if o.POCap == 0 {
		o.POCap = 30e-15
	}
	if o.Corner == "" {
		o.Corner = "TT"
	}
	if o.AttributionTopK == 0 {
		o.AttributionTopK = 10
	}
	return o
}

const (
	// esperanceMargin is the relative margin of the Esperance
	// criticality test.
	esperanceMargin = 0.05
	// maxPasses bounds the iterative refinement.
	maxPasses = 10
)

const (
	dirRise = 0
	dirFall = 1
)

func dirOf(i int) waveform.Direction {
	if i == dirRise {
		return waveform.Rising
	}
	return waveform.Falling
}

// arcPred records the worst arc into a (net, dir) for path recovery.
type arcPred struct {
	valid   bool
	cell    netlist.CellID
	fromNet netlist.NetID
	fromDir int
}

// netState is the per-pass timing state of one net.
type netState struct {
	arrival    [2]float64 // 50% crossing time at the driver pin
	slew       [2]float64
	quiet      [2]float64 // upper bound on the completion of any event
	pred       [2]arcPred
	calculated bool
}

// netInfo is the pass-invariant electrical summary of a net.
type netInfo struct {
	baseCap float64 // grounded load excluding coupling caps
	cwire   float64 // wire portion of baseCap
	rwire   float64 // wire resistance (π-model extension)
	sumCc   float64
	// ccLo/ccHi span the net's entries in the compiled coupling CSR
	// (Compiled.cc) — the SoA replacement for a per-net []Coupling.
	ccLo, ccHi    int32
	sizeMult      float64
	maxSinkElmore float64
	driverKind    netlist.GateKind
	driverNIn     int
}

// PathStep is one hop of the reported critical path.
type PathStep struct {
	Net     string
	Dir     waveform.Direction
	Arrival float64
	Cell    string // driving cell ("" for launch points)
}

// Endpoint describes where the longest path terminates.
type Endpoint struct {
	Net  string
	Kind string // "DFF/D" or "PO"
	Cell string // capturing flip-flop, if any
}

// Result reports one analysis.
type Result struct {
	Mode Mode
	// LongestPath is the worst arrival over all endpoints (seconds).
	LongestPath float64
	Endpoint    Endpoint
	Path        []PathStep
	// Passes counts full BFS sweeps (1 for the single-pass modes).
	Passes int
	// PassStats is the per-pass work/tightness breakdown, in pass
	// order. For Iterative the LongestPath column is non-increasing up
	// to delay-calculator quantization noise.
	PassStats []PassStat
	// Runtime is the wall-clock analysis time.
	Runtime time.Duration
	// ArcEvaluations counts delay-calculator requests; Simulations
	// counts the subset that missed the characterization cache;
	// CacheHits the subset served from it.
	ArcEvaluations, Simulations, CacheHits int64
	// Tier0Hits and Tier0Fallbacks are always 0: the tier-0 dispatcher
	// they counted was retired. They stay only so existing callers
	// compile, and go at the next benchmark change.
	Tier0Hits, Tier0Fallbacks int64
	// WireDelayOnLongestPath sums the Elmore wire delays along the
	// reported path (the §6 wire-vs-coupling comparison).
	WireDelayOnLongestPath float64
	// Replay is the stored per-pass state an incremental re-analysis
	// seeds clean lines from (nil when Options.DisableReplay is set).
	Replay *ReplayState
	// ECO is the work breakdown of a seeded run (nil for full runs).
	ECO *ECOStats
	// Attribution is the per-arc breakdown of the top-K endpoint paths
	// (nil unless Options.Attribution is set).
	Attribution *Attribution
}

// Engine is one analysis session over a compiled snapshot: the
// embedded *Compiled carries every immutable, shareable artifact
// (circuit, net summaries, levels, ranks, dataflow graphs), while the
// Engine itself holds only per-run mutable state. Sessions over the
// same Compiled are independent and may run concurrently; a single
// Engine is not safe for concurrent Run calls.
type Engine struct {
	*Compiled
	Calc delaycalc.Evaluator

	opts Options
	// Telemetry plumbing: m is never nil (unregistered instruments when
	// Options.Metrics is nil); trace may be nil (no-op safe).
	m          *engineMetrics
	trace      *obs.Tracer
	passStats  []PassStat
	passRecalc atomic.Int64
	passSkips  atomic.Int64
	// earliestStart holds per-(net, dir) earliest transition-start
	// bounds when Options.Windows is active (nil otherwise).
	earliestStart [][2]float64
	// bcs caches best-case arc results across passes, indexed by
	// [out net − 1][pin*2 + dOut]. Exactly one level worker owns a cell
	// within a pass and passes are barrier-separated, so the slots need
	// no locking (see parallel.go).
	bcs [][]bcsEntry
	// statePool recycles per-pass []netState allocations across passes
	// and runs (driver goroutine only; the final pass state handed to
	// finish/Report is never pooled, and ReplayState copies are
	// independent).
	statePool [][]netState
	// Session scratch arenas (driver goroutine only), recycled across
	// passes and runs so steady-state analysis allocates no per-pass
	// O(nets) scratch: seenBits deduplicates coupled-victim walks
	// (callers must clear the bits they set), coneBuf/coneQueue back
	// structuralCone, ecoPool recycles ecoPass dirty/changed arrays.
	seenBits  []bool
	coneBuf   []bool
	coneQueue []netlist.NetID
	ecoPool   []*ecoPass
	// passConverged is the delta-refinement carry-over count of the
	// in-flight pass (driver goroutine only; harvested by endPass).
	passConverged int64
	// Replay capture (eco.go): per-pass state copies and the raw
	// min-pass outputs, reset per analysis, harvested by takeReplay.
	replayPasses             [][]netState
	replayEarly, replaySlews [][2]float64
	// Final-pass evalArc context, captured by runPasses(Seeded) for the
	// attribution rebuild: the quiescent-time snapshot the last executed
	// sweep classified against (nil for first/single passes) and that
	// sweep's mode (OneStep for the Iterative seed pass).
	finalQuietPrev [][2]float64
	finalPassMode  Mode
	// created/queueWaitDone time the session's queue wait: the gap
	// between NewSession and the first analysis start, observed once.
	created       time.Time
	queueWaitDone bool
}

type endpointRef struct {
	net   netlist.NetID
	cell  netlist.CellID // NoCell for POs
	extra float64        // wire delay to the endpoint pin
}

// NewEngine prepares a single-use engine: Compile plus NewSession in
// one step. The circuit must be lowered (only INV, NAND, NOR, DFF
// cells) and carry extracted parasitics. Callers that analyze the same
// circuit repeatedly should Compile once and open sessions per run.
func NewEngine(c *netlist.Circuit, calc delaycalc.Evaluator, opts Options) (*Engine, error) {
	cd, err := Compile(c, calc, opts)
	if err != nil {
		return nil, err
	}
	return NewSession(cd, calc, opts)
}

// piSlewFor returns the input transition time of a primary input,
// honoring per-net ECO overrides.
func (e *Engine) piSlewFor(net netlist.NetID) float64 {
	if s, ok := e.opts.PISlews[net]; ok && s > 0 {
		return s
	}
	return e.opts.PISlew
}

// layoutClockPin aliases the PinRef protocol constant for clock pins.
const layoutClockPin = netlist.ClockPinIndex

// Run executes the configured analysis.
func (e *Engine) Run() (*Result, error) {
	start := time.Now()
	e.Calc.ResetStats()
	res := &Result{Mode: e.opts.Mode}

	st, passes, err := e.finalState()
	if err != nil {
		return nil, err
	}
	res.Passes = passes
	res.PassStats = append([]PassStat(nil), e.passStats...)
	e.finish(res, st)
	res.Replay = e.takeReplay()

	res.Runtime = time.Since(start)
	// Snapshot the work counters before any attribution rebuild: the
	// rebuild re-evaluates reported arcs through the same calculator
	// scope, and those cache-warm replays must not count as analysis
	// work.
	res.ArcEvaluations, res.Simulations = e.Calc.Stats()
	res.CacheHits = e.calcCounters().CacheHits
	if e.opts.Attribution {
		attr, err := e.buildAttribution(st)
		if err != nil {
			return nil, err
		}
		res.Attribution = attr
	}
	e.emitAnalysisEvent("analysis", res, nil)
	return res, nil
}

// emitAnalysisEvent writes one structured event-log record for a
// completed analysis (or seeded re-analysis; extra carries the ECO seed
// stats then). No-op without Options.Events.
func (e *Engine) emitAnalysisEvent(name string, res *Result, extra map[string]any) {
	if e.opts.Events == nil {
		return
	}
	var converged, recalc int64
	for _, ps := range res.PassStats {
		converged += ps.ConvergedSkips
		recalc += ps.RecalculatedWires
	}
	fields := map[string]any{
		"mode":            e.opts.Mode.String(),
		"corner":          e.opts.Corner,
		"scheduler":       e.opts.Scheduler.String(),
		"revision":        e.rev,
		"passes":          res.Passes,
		"longest_ns":      res.LongestPath * 1e9,
		"arc_evaluations": res.ArcEvaluations,
		"simulations":     res.Simulations,
		"recalc_wires":    recalc,
		"converged_skips": converged,
		"runtime_ms":      float64(res.Runtime) / 1e6,
	}
	for k, v := range extra {
		fields[k] = v
	}
	e.opts.Events.Emit(name, fields)
}

// getState hands out a per-pass net-state slice, recycling slices
// returned through putState. Callers must fully initialize every slot
// (freshNetState or a carry-over assignment): pooled slices hold stale
// state from an earlier pass. Driver goroutine only.
func (e *Engine) getState() []netState {
	if n := len(e.statePool); n > 0 {
		st := e.statePool[n-1]
		e.statePool[n-1] = nil
		e.statePool = e.statePool[:n-1]
		e.m.statePoolReuses.Inc()
		return st
	}
	return make([]netState, len(e.C.Nets))
}

// putState returns a pass state to the pool once nothing reads it
// anymore. Never pool slices owned by a ReplayState or the final pass
// state a Result was built from.
func (e *Engine) putState(st []netState) {
	if st != nil && len(st) == len(e.C.Nets) {
		e.statePool = append(e.statePool, st)
	}
}

// getSeenBits returns the session's dense dedup bitset (by NetID−1).
// Contract: the caller clears every bit it set before the next use —
// clearing is O(bits set), not O(nets).
func (e *Engine) getSeenBits() []bool {
	if e.seenBits == nil {
		e.seenBits = make([]bool, len(e.C.Nets))
	}
	return e.seenBits
}

// getEcoPass hands out a reset ecoPass from the session pool; the
// dirty/changed arrays are cleared here so newEcoPass/newDeltaPass see
// the same zero state a fresh allocation would give.
func (e *Engine) getEcoPass() *ecoPass {
	n := len(e.C.Nets)
	if l := len(e.ecoPool); l > 0 {
		ec := e.ecoPool[l-1]
		e.ecoPool[l-1] = nil
		e.ecoPool = e.ecoPool[:l-1]
		for i := range ec.dirty {
			ec.dirty[i].Store(false)
		}
		clear(ec.changed)
		ec.orig = nil
		ec.pass1 = false
		ec.expansions.Store(0)
		ec.dirtyN.Store(0)
		ec.reusedN.Store(0)
		return ec
	}
	return &ecoPass{
		changed: make([]bool, n),
		dirty:   make([]atomic.Bool, n),
	}
}

// putEcoPass returns an ecoPass to the pool once nothing reads its
// changed mask anymore (the next pass has consumed it).
func (e *Engine) putEcoPass(ec *ecoPass) {
	if ec != nil && len(ec.changed) == len(e.C.Nets) {
		ec.orig = nil
		e.ecoPool = append(e.ecoPool, ec)
	}
}

func snapshotQuiet(st []netState) [][2]float64 {
	out := make([][2]float64, len(st))
	for i := range st {
		out[i] = st[i].quiet
	}
	return out
}

// longest returns the worst endpoint arrival and its endpoint index.
func (e *Engine) longest(st []netState) (float64, int) {
	worst := math.Inf(-1)
	worstIdx := -1
	for i, ep := range e.endpoints {
		s := &st[ep.net-1]
		for d := 0; d < 2; d++ {
			if !s.calculated || math.IsInf(s.arrival[d], -1) {
				continue
			}
			if a := s.arrival[d] + ep.extra; a > worst {
				worst = a
				worstIdx = i
			}
		}
	}
	return worst, worstIdx
}

// finish populates the result from the final pass state.
func (e *Engine) finish(res *Result, st []netState) {
	delay, epIdx := e.longest(st)
	res.LongestPath = delay
	if epIdx < 0 {
		return
	}
	ep := e.endpoints[epIdx]
	epNet := e.C.Net(ep.net)
	res.Endpoint = Endpoint{Net: epNet.Name}
	if ep.cell != netlist.NoCell {
		res.Endpoint.Kind = "DFF/D"
		res.Endpoint.Cell = e.C.Cell(ep.cell).Name
	} else {
		res.Endpoint.Kind = "PO"
	}
	// Pick the worse direction at the endpoint.
	s := &st[ep.net-1]
	d := dirRise
	if s.arrival[dirFall] > s.arrival[dirRise] {
		d = dirFall
	}
	// Walk predecessors.
	res.WireDelayOnLongestPath = ep.extra
	net, dir := ep.net, d
	for steps := 0; steps < len(e.C.Nets)+2; steps++ {
		s := &st[net-1]
		cellName := ""
		if p := s.pred[dir]; p.valid {
			cellName = e.C.Cell(p.cell).Name
		}
		res.Path = append(res.Path, PathStep{
			Net: e.C.Net(net).Name, Dir: dirOf(dir), Arrival: s.arrival[dir], Cell: cellName,
		})
		p := s.pred[dir]
		if !p.valid {
			break
		}
		// Wire delay consumed entering this cell (lowest pin fed by the
		// predecessor net, matching the fanout append order).
		pcell := e.C.Cell(p.cell)
		for pin, in := range pcell.In {
			if in == p.fromNet {
				res.WireDelayOnLongestPath += e.sink.At(p.cell, pin)
				break
			}
		}
		net, dir = p.fromNet, p.fromDir
	}
	// Reverse to launch→capture order.
	for i, j := 0, len(res.Path)-1; i < j; i, j = i+1, j-1 {
		res.Path[i], res.Path[j] = res.Path[j], res.Path[i]
	}
}

// criticalNets flags nets whose esperance reaches within the margin of
// the longest delay (the Benkoski-style filtering, §5.2).
func (e *Engine) criticalNets(st []netState, longest float64) []bool {
	// esperance(net, dir) = arrival + remaining downstream delay; a net
	// is critical when max over dirs is close to the longest path.
	n := len(e.C.Nets)
	remaining := make([][2]float64, n)
	for i := range remaining {
		remaining[i] = [2]float64{math.Inf(-1), math.Inf(-1)}
	}
	for _, ep := range e.endpoints {
		for d := 0; d < 2; d++ {
			if ep.extra > remaining[ep.net-1][d] {
				remaining[ep.net-1][d] = ep.extra
			}
		}
	}
	// Reverse topological sweep.
	for i := len(e.order) - 1; i >= 0; i-- {
		cell := e.C.Cell(e.order[i])
		out := cell.Out
		for _, in := range cell.In {
			for dIn := 0; dIn < 2; dIn++ {
				dOut := 1 - dIn // inverting library
				if math.IsInf(remaining[out-1][dOut], -1) {
					continue
				}
				arcDelay := st[out-1].arrival[dOut] - st[in-1].arrival[dIn]
				if arcDelay < 0 || math.IsNaN(arcDelay) {
					arcDelay = 0
				}
				cand := remaining[out-1][dOut] + arcDelay
				if cand > remaining[in-1][dIn] {
					remaining[in-1][dIn] = cand
				}
			}
		}
	}
	crit := make([]bool, n)
	thresh := longest * (1 - esperanceMargin)
	for i := range crit {
		for d := 0; d < 2; d++ {
			if math.IsInf(st[i].arrival[d], -1) || math.IsInf(remaining[i][d], -1) {
				continue
			}
			if st[i].arrival[d]+remaining[i][d] >= thresh {
				crit[i] = true
			}
		}
	}
	return crit
}
