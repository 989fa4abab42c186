package delaycalc

import (
	"xtalksta/internal/ccc"
	"xtalksta/internal/device"
)

// Evaluator is the arc-delay interface the STA engine consumes. The
// circuit-level Calculator is the reference implementation; the
// precharacterized LUT library (internal/liberty) is the fast one.
type Evaluator interface {
	// Eval computes one timing arc.
	Eval(Request) (Result, error)
	// Stats returns requests served and underlying simulations run.
	Stats() (requests, simulations int64)
	// ResetStats clears the counters.
	ResetStats()
	// ClearCache drops memoized results (no-op where not applicable).
	ClearCache()
	// Proc exposes the process parameters.
	Proc() device.Process
	// Siz exposes the library sizing.
	Siz() ccc.Sizing
}

// Counters is a point-in-time snapshot of an evaluator's work
// counters. Requests and Simulations mirror Stats; the Newton fields
// expose the transistor-level solver effort behind the simulations;
// CacheHits counts requests served from the characterization cache
// (including single-flight waiters), so Requests == Simulations +
// CacheHits for a cache-enabled calculator.
type Counters struct {
	Requests         int64
	Simulations      int64
	CacheHits        int64
	NewtonIterations int64
	NewtonFailures   int64
}

// Sub returns the counter deltas c − prev (work done since prev was
// snapshotted).
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Requests:         c.Requests - prev.Requests,
		Simulations:      c.Simulations - prev.Simulations,
		CacheHits:        c.CacheHits - prev.CacheHits,
		NewtonIterations: c.NewtonIterations - prev.NewtonIterations,
		NewtonFailures:   c.NewtonFailures - prev.NewtonFailures,
	}
}

// CounterProvider is the optional detailed-stats interface an Evaluator
// may implement; the Calculator does. Evaluators without it (the LUT
// library) fall back to the two-counter Stats pair.
type CounterProvider interface {
	Counters() Counters
}

// Proc implements Evaluator.
func (c *Calculator) Proc() device.Process { return c.Lib.Proc }

// Siz implements Evaluator.
func (c *Calculator) Siz() ccc.Sizing { return c.Sizing }

// Bounds, BoundsEvaluator and Tier0Bounds have no effect: the engine
// no longer brackets arcs analytically, and Tier0Bounds always reports
// bounds unavailable. They stay only so existing callers compile, and
// go at the next benchmark change.
type Bounds struct{}

// BoundsEvaluator has no effect; see Bounds.
type BoundsEvaluator interface {
	Tier0Bounds(Request) (Bounds, bool)
}

// Tier0Bounds has no effect and always returns false; see Bounds.
func (c *Calculator) Tier0Bounds(Request) (Bounds, bool) { return Bounds{}, false }

var _ Evaluator = (*Calculator)(nil)
