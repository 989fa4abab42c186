package core

import (
	"testing"

	"xtalksta/internal/delaycalc"
	"xtalksta/internal/netlist"
)

// The retired tier-0 dispatcher left Options.Tier0 and Tier0Margin
// behind as ignored options, and Result.Tier0Hits and Tier0Fallbacks as
// always-zero counters, so existing callers keep compiling. The tests
// below pin that setting them changes nothing on any path a run can
// take: every mode, a seeded re-analysis, any margin, the approximate
// modes and the parallel schedulers. They go with the names.

// runInert runs opts from a cold cache with and without the tier-0
// options set, and asserts bit-identical results, identical work and
// zero tier-0 counters. It returns the run with the options set.
func runInert(t *testing.T, c *netlist.Circuit, calc *delaycalc.Calculator, opts Options, ctx string) *Result {
	t.Helper()
	off := opts
	off.Tier0, off.Tier0Margin = false, 0
	calc.ClearCache()
	want := runMode(t, c, calc, off)
	calc.ClearCache()
	got := runMode(t, c, calc, opts)
	bitEqual(t, want, got, ctx)
	if got.ArcEvaluations != want.ArcEvaluations || got.Simulations != want.Simulations {
		t.Errorf("%s: evaluations/simulations %d/%d, want %d/%d", ctx,
			got.ArcEvaluations, got.Simulations, want.ArcEvaluations, want.Simulations)
	}
	if got.Tier0Hits != 0 || got.Tier0Fallbacks != 0 {
		t.Errorf("%s: tier-0 counters %d/%d, want 0/0", ctx, got.Tier0Hits, got.Tier0Fallbacks)
	}
	return got
}

func TestTier0ParityAllModes(t *testing.T) {
	c, calc := buildExtracted(t, 260, 20, 9, 301)
	for _, m := range Modes() {
		runInert(t, c, calc, Options{Mode: m, Tier0: true}, m.String())
	}
}

// TestTier0ParitySeeded: a seeded re-analysis with Tier0 set lands on
// the from-scratch result of the edited design.
func TestTier0ParitySeeded(t *testing.T) {
	c, calc := buildExtracted(t, 220, 16, 8, 302)
	opts := Options{Mode: Iterative, Tier0: true}
	base := runMode(t, c, calc, opts)

	a, b := firstCoupledPair(t, c)
	scalePair(c, a, b, 1.7)

	full := runInert(t, c, calc, opts, "full after edit")
	seeded := runSeeded(t, c, calc, opts, base, []netlist.NetID{a, b})
	bitEqual(t, full, seeded, "seeded vs full")
	if seeded.Tier0Hits != 0 || seeded.Tier0Fallbacks != 0 {
		t.Errorf("seeded: tier-0 counters %d/%d, want 0/0", seeded.Tier0Hits, seeded.Tier0Fallbacks)
	}
}

func TestTier0MarginSweepParity(t *testing.T) {
	c, calc := buildExtracted(t, 200, 14, 8, 303)
	for _, margin := range []float64{1e-9, 0.05, 0.5, 0.999} {
		runInert(t, c, calc, Options{Mode: Iterative, Tier0: true, Tier0Margin: margin}, "margin sweep")
	}
}

func TestTier0DisabledUnderApproximateModes(t *testing.T) {
	c, calc := buildExtracted(t, 180, 12, 8, 304)
	runInert(t, c, calc, Options{Mode: Iterative, Tier0: true, Esperance: true}, "esperance")
	runInert(t, c, calc, Options{Mode: Iterative, Tier0: true, Windows: true}, "windows")
}

func TestTier0ParallelParity(t *testing.T) {
	c, calc := buildExtracted(t, 240, 18, 9, 305)
	for _, sched := range []Scheduler{SchedDataflow, SchedLevels} {
		runInert(t, c, calc, Options{Mode: Iterative, Tier0: true, Workers: 4, Scheduler: sched}, "parallel "+sched.String())
	}
}
