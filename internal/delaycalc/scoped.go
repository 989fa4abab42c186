package delaycalc

import (
	"sync/atomic"

	"xtalksta/internal/ccc"
	"xtalksta/internal/device"
)

// Info is the per-call work breakdown of one arc evaluation: the
// request itself, whether it ran a fresh stage simulation (as opposed
// to a cache hit or a single-flight wait, reported via CacheHits), and
// the Newton effort spent. All fields are additive counts so a scope
// can simply sum them; Simulations + CacheHits == Requests for a
// cache-enabled calculator, which lets attribution renderers split a
// run's arc evaluations into characterization work vs cache reuse.
type Info struct {
	Requests         int64
	Simulations      int64
	CacheHits        int64
	NewtonIterations int64
	NewtonFailures   int64
}

// InfoEvaluator is the optional interface of evaluators that can
// attribute per-call work, enabling Scoped session counters. The
// Calculator implements it.
type InfoEvaluator interface {
	Evaluator
	EvalInfo(Request) (Result, Info, error)
}

// Scoped wraps an evaluator with session-local work counters: Stats,
// ResetStats and Counters act on the scope only, so concurrent analysis
// sessions sharing one Calculator (and its characterization cache) each
// see exactly the work their own requests incurred — the same numbers a
// serial run reports. Everything else (cache, process, sizing)
// delegates to the shared evaluator. Evaluators that cannot attribute
// per-call work (no InfoEvaluator, e.g. the LUT fallback chain) are
// returned unchanged, preserving their existing shared-counter
// semantics.
//
// A scoped evaluator is safe for concurrent Eval calls, but Stats and
// ResetStats follow the session's single-driver discipline.
func Scoped(inner Evaluator) Evaluator {
	if ie, ok := inner.(InfoEvaluator); ok {
		return &scoped{inner: ie}
	}
	return inner
}

type scoped struct {
	inner InfoEvaluator

	requests    atomic.Int64
	simulations atomic.Int64
	cacheHits   atomic.Int64
	newtonIters atomic.Int64
	newtonFails atomic.Int64
}

// Eval implements Evaluator, accumulating the call's work on the scope.
func (s *scoped) Eval(r Request) (Result, error) {
	res, info, err := s.inner.EvalInfo(r)
	s.requests.Add(info.Requests)
	s.simulations.Add(info.Simulations)
	s.cacheHits.Add(info.CacheHits)
	s.newtonIters.Add(info.NewtonIterations)
	s.newtonFails.Add(info.NewtonFailures)
	return res, err
}

// Stats implements Evaluator over the scope's counters.
func (s *scoped) Stats() (requests, simulations int64) {
	return s.requests.Load(), s.simulations.Load()
}

// ResetStats clears the scope's counters only; the shared evaluator's
// lifetime counters are left monotonic for other sessions.
func (s *scoped) ResetStats() {
	s.requests.Store(0)
	s.simulations.Store(0)
	s.cacheHits.Store(0)
	s.newtonIters.Store(0)
	s.newtonFails.Store(0)
}

// Counters implements CounterProvider over the scope's counters.
func (s *scoped) Counters() Counters {
	return Counters{
		Requests:         s.requests.Load(),
		Simulations:      s.simulations.Load(),
		CacheHits:        s.cacheHits.Load(),
		NewtonIterations: s.newtonIters.Load(),
		NewtonFailures:   s.newtonFails.Load(),
	}
}

// ClearCache drops the shared evaluator's memoized results (affects all
// sessions; the serial analysis paths use it between modes).
func (s *scoped) ClearCache() { s.inner.ClearCache() }

func (s *scoped) Proc() device.Process { return s.inner.Proc() }
func (s *scoped) Siz() ccc.Sizing      { return s.inner.Siz() }

var (
	_ Evaluator       = (*scoped)(nil)
	_ CounterProvider = (*scoped)(nil)
	_ InfoEvaluator   = (*Calculator)(nil)
)
