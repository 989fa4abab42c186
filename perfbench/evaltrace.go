package main

import (
	"sync/atomic"
	"time"

	"xtalksta/internal/ccc"
	"xtalksta/internal/delaycalc"
	"xtalksta/internal/device"
)

// tracedEval times every call a session makes into the delay
// calculator. It forwards all the optional interfaces the engine looks
// for — InfoEvaluator (session-scoped counters), BoundsEvaluator
// (tier-0 dispatch) and CounterProvider — so a traced session runs the
// same program as an untraced one: without BoundsEvaluator the engine
// would silently switch tier-0 off.
type tracedEval struct {
	calc *delaycalc.Calculator

	hitNs, missNs, boundsNs atomic.Int64
	boundsCalls             atomic.Int64
}

var (
	_ delaycalc.InfoEvaluator   = (*tracedEval)(nil)
	_ delaycalc.BoundsEvaluator = (*tracedEval)(nil)
	_ delaycalc.CounterProvider = (*tracedEval)(nil)
)

func newTracedEval(calc *delaycalc.Calculator) *tracedEval { return &tracedEval{calc: calc} }

// EvalInfo times one arc evaluation. A call that ran a fresh stage
// simulation counts as miss time; cache hits and single-flight waits
// count as hit time.
func (t *tracedEval) EvalInfo(r delaycalc.Request) (delaycalc.Result, delaycalc.Info, error) {
	start := time.Now()
	res, info, err := t.calc.EvalInfo(r)
	d := int64(time.Since(start))
	if info.Simulations > 0 {
		t.missNs.Add(d)
	} else {
		t.hitNs.Add(d)
	}
	return res, info, err
}

func (t *tracedEval) Eval(r delaycalc.Request) (delaycalc.Result, error) {
	res, _, err := t.EvalInfo(r)
	return res, err
}

// Tier0Bounds times one analytic bracket.
func (t *tracedEval) Tier0Bounds(r delaycalc.Request) (delaycalc.Bounds, bool) {
	start := time.Now()
	b, ok := t.calc.Tier0Bounds(r)
	t.boundsNs.Add(int64(time.Since(start)))
	t.boundsCalls.Add(1)
	return b, ok
}

func (t *tracedEval) Stats() (requests, simulations int64) { return t.calc.Stats() }
func (t *tracedEval) ResetStats()                          { t.calc.ResetStats() }
func (t *tracedEval) ClearCache()                          { t.calc.ClearCache() }
func (t *tracedEval) Proc() device.Process                 { return t.calc.Proc() }
func (t *tracedEval) Siz() ccc.Sizing                      { return t.calc.Siz() }
func (t *tracedEval) Counters() delaycalc.Counters         { return t.calc.Counters() }

// evalBusy is a snapshot of a tracedEval's accumulated busy times.
type evalBusy struct {
	hit, miss, bounds time.Duration
	boundsCalls       int64
}

func (t *tracedEval) busy() evalBusy {
	return evalBusy{
		hit:         time.Duration(t.hitNs.Load()),
		miss:        time.Duration(t.missNs.Load()),
		bounds:      time.Duration(t.boundsNs.Load()),
		boundsCalls: t.boundsCalls.Load(),
	}
}

func (b evalBusy) sub(prev evalBusy) evalBusy {
	return evalBusy{
		hit:         b.hit - prev.hit,
		miss:        b.miss - prev.miss,
		bounds:      b.bounds - prev.bounds,
		boundsCalls: b.boundsCalls - prev.boundsCalls,
	}
}

func (b evalBusy) total() time.Duration { return b.hit + b.miss + b.bounds }
