package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xtalksta/internal/netlist"
	"xtalksta/internal/obs"
)

// TestRunLevelsAbortsOnError: once a worker fails, the remaining
// workers must stop claiming cells instead of draining the level
// (regression test for the abort flag in the claim loop).
func TestRunLevelsAbortsOnError(t *testing.T) {
	c, calc := buildExtracted(t, 60, 6, 4, 710)
	eng, err := NewEngine(c, calc, Options{Mode: BestCase})
	if err != nil {
		t.Fatal(err)
	}
	// One big synthetic level; the callback never touches the cell, so
	// repeating one ID is fine.
	const n = 500
	level := make([]netlist.CellID, n)
	workers := 8
	var calls atomic.Int64
	var failed atomic.Bool
	do := func(cell *netlist.Cell) error {
		calls.Add(1)
		if failed.CompareAndSwap(false, true) {
			return errors.New("injected failure")
		}
		time.Sleep(time.Millisecond)
		return nil
	}
	err = eng.runLevels("test", [][]netlist.CellID{level}, workers, do)
	if err == nil {
		t.Fatal("expected the injected error to propagate")
	}
	// The first call fails while the other workers sleep in their first
	// or second cell; without the abort flag they would drain all 500.
	if got := calls.Load(); got > int64(4*workers) {
		t.Errorf("workers processed %d cells after the failure (level of %d); abort flag not honored", got, n)
	}
}

// TestPassStatsRecorded: Result.PassStats must cover every pass, lead
// with the one-step seed pass, count real work, and show a
// non-increasing longest-path bound across iterative refinements.
func TestPassStatsRecorded(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 711)
	res := runMode(t, c, calc, Options{Mode: Iterative})
	if len(res.PassStats) != res.Passes {
		t.Fatalf("PassStats has %d entries, Result.Passes is %d", len(res.PassStats), res.Passes)
	}
	if res.PassStats[0].Mode != OneStep {
		t.Errorf("pass 1 mode = %s, want the one-step seed pass", res.PassStats[0].Mode)
	}
	for i, ps := range res.PassStats {
		if ps.Pass != i+1 {
			t.Errorf("PassStats[%d].Pass = %d, want %d", i, ps.Pass, i+1)
		}
		if ps.ArcEvaluations <= 0 {
			t.Errorf("pass %d: no arc evaluations recorded", ps.Pass)
		}
		if ps.RecalculatedWires <= 0 {
			t.Errorf("pass %d: no recalculated wires recorded", ps.Pass)
		}
		if ps.Wall <= 0 {
			t.Errorf("pass %d: wall time not recorded", ps.Pass)
		}
		if i == 0 {
			continue
		}
		// Refinement can only tighten the bound; allow a sliver for
		// cache-quantization noise on the final (converged) pass.
		prev := res.PassStats[i-1].LongestPath
		if ps.LongestPath > prev*(1+1e-3) {
			t.Errorf("pass %d longest path %v exceeds pass %d's %v",
				ps.Pass, ps.LongestPath, i, prev)
		}
	}
	last := res.PassStats[len(res.PassStats)-1].LongestPath
	if last != res.LongestPath {
		t.Errorf("final pass longest %v != Result.LongestPath %v", last, res.LongestPath)
	}
}

// recordingObserver captures the callback sequence.
type recordingObserver struct {
	events []string
	stats  []PassStat
}

func (r *recordingObserver) PassStarted(pass int, mode Mode) {
	r.events = append(r.events, fmt.Sprintf("start %d %s", pass, mode))
}

func (r *recordingObserver) PassFinished(st PassStat) {
	r.events = append(r.events, fmt.Sprintf("finish %d", st.Pass))
	r.stats = append(r.stats, st)
}

// TestObserverCallbacks: started/finished must alternate per pass, on
// one goroutine (the recorder has no locking, so -race also verifies
// the threading contract).
func TestObserverCallbacks(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 712)
	rec := &recordingObserver{}
	res := runMode(t, c, calc, Options{
		Mode: Iterative, Workers: runtime.NumCPU(), Observer: rec,
	})
	if len(rec.stats) != res.Passes {
		t.Fatalf("observer saw %d passes, engine ran %d", len(rec.stats), res.Passes)
	}
	for i := 0; i < res.Passes; i++ {
		wantFinish := fmt.Sprintf("finish %d", i+1)
		if got := rec.events[2*i+1]; got != wantFinish {
			t.Errorf("event %d = %q, want %q", 2*i+1, got, wantFinish)
		}
	}
	for i, st := range rec.stats {
		if st != res.PassStats[i] {
			t.Errorf("observer stat %d differs from Result.PassStats", i)
		}
	}
}

// TestMetricsRegistryPopulated: an attached registry must agree with
// the Result's own counters and cover the coupling decisions. Pinned
// to the levels scheduler — the level counters are specific to it.
func TestMetricsRegistryPopulated(t *testing.T) {
	c, calc := buildExtracted(t, 150, 12, 8, 713)
	reg := obs.NewRegistry()
	res := runMode(t, c, calc, Options{Mode: Iterative, Metrics: reg, Scheduler: SchedLevels})
	d := reg.Snapshot()
	if got := d.Counters[obs.MArcEvaluations]; got != res.ArcEvaluations {
		t.Errorf("%s = %d, Result.ArcEvaluations = %d", obs.MArcEvaluations, got, res.ArcEvaluations)
	}
	if got := d.Counters[obs.MSimulations]; got != res.Simulations {
		t.Errorf("%s = %d, Result.Simulations = %d", obs.MSimulations, got, res.Simulations)
	}
	if d.Counters[obs.MNewtonIters] <= 0 {
		t.Errorf("no Newton iterations recorded")
	}
	if d.Counters[obs.MCouplingActive] <= 0 {
		t.Errorf("no active coupling decisions recorded")
	}
	if got := d.Counters[obs.MPasses]; got != int64(res.Passes) {
		t.Errorf("%s = %d, Result.Passes = %d", obs.MPasses, got, res.Passes)
	}
	if d.Counters[obs.MRecalcWires] <= 0 {
		t.Errorf("no recalculated wires recorded")
	}
	if d.Counters[obs.MLevels] <= 0 {
		t.Errorf("no levels recorded")
	}
}

// TestParallelCountersMatchSequential: with the single-flight delay
// calculator the full counter set — including simulations and Newton
// iterations — must be identical for any worker count.
func TestParallelCountersMatchSequential(t *testing.T) {
	c, calc := buildExtracted(t, 200, 16, 8, 714)
	seq := runMode(t, c, calc, Options{Mode: Iterative, Workers: 1})
	seqCounters := calc.Counters()

	c2, calc2 := buildExtracted(t, 200, 16, 8, 714)
	par := runMode(t, c2, calc2, Options{Mode: Iterative, Workers: 4})
	parCounters := calc2.Counters()

	if seq.LongestPath != par.LongestPath {
		t.Errorf("longest path differs: %v vs %v", seq.LongestPath, par.LongestPath)
	}
	if seqCounters != parCounters {
		t.Errorf("counter totals differ:\n  sequential %+v\n  parallel   %+v", seqCounters, parCounters)
	}
}
