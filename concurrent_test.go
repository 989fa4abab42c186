package xtalksta

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"xtalksta/internal/circuitgen"
	"xtalksta/internal/incremental"
)

// diffResults bit-compares two analysis results (longest path, pass
// count and, when both carry replay state, the full final per-line
// timing). Returns "" on an exact match. Unlike assertBitExact it never
// touches testing.T, so it is safe to call from worker goroutines.
func diffResults(want, got *AnalysisResult) string {
	if math.Float64bits(want.LongestPath) != math.Float64bits(got.LongestPath) {
		return fmt.Sprintf("longest path %.17g != reference %.17g", got.LongestPath, want.LongestPath)
	}
	if want.Passes != got.Passes {
		return fmt.Sprintf("passes %d != reference %d", got.Passes, want.Passes)
	}
	if want.Replay == nil || got.Replay == nil {
		return ""
	}
	kinds := []struct {
		name      string
		want, got [][2]float64
	}{
		{"arrival", want.Replay.FinalArrivals(), got.Replay.FinalArrivals()},
		{"slew", want.Replay.FinalSlews(), got.Replay.FinalSlews()},
		{"quiet", want.Replay.FinalQuiets(), got.Replay.FinalQuiets()},
	}
	for _, k := range kinds {
		for i := range k.want {
			for d := 0; d < 2; d++ {
				if math.Float64bits(k.want[i][d]) != math.Float64bits(k.got[i][d]) {
					return fmt.Sprintf("net %d dir %d %s %.17g != reference %.17g",
						i+1, d, k.name, k.got[i][d], k.want[i][d])
				}
			}
		}
	}
	return ""
}

// TestAnalyzeAllKeepCacheParity runs the five-mode sweep on a cold
// cache per mode and then with KeepCache on the same design: every
// mode's delays and final timing state must be Float64bits-identical,
// the snapshot must be compiled exactly once, and all ten analyses
// past the first must reuse it.
func TestAnalyzeAllKeepCacheParity(t *testing.T) {
	d, err := Generate(circuitgen.Params{Seed: 31, Cells: 140, DFFs: 10, Depth: 6, ClockFanout: 4}, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := d.AnalyzeAll(AnalysisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := d.AnalyzeAll(AnalysisOptions{KeepCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != len(warm) {
		t.Fatalf("result counts differ: %d vs %d", len(cold), len(warm))
	}
	for i, m := range Modes() {
		if diff := diffResults(cold[i], warm[i]); diff != "" {
			t.Errorf("%s: %s", m, diff)
		}
	}
	builds, reuses := d.SnapshotStats()
	if builds != 1 {
		t.Errorf("snapshot builds = %d, want 1 (one revision, one compile key)", builds)
	}
	if reuses != 9 {
		t.Errorf("snapshot reuses = %d, want 9 (ten analyses, one build)", reuses)
	}
}

// TestConcurrentMixedAnalyzeEditSessions is the concurrency contract
// test: one writer goroutine walks the design through a chain of edit
// batches (alternating Design.Edit and Design.Reanalyze) while eight
// reader goroutines issue full Analyze calls against whatever revision
// is current. Every result must be bit-identical to the serial
// reference analysis of the revision it reports, proving both the
// session isolation and the copy-on-write snapshot invalidation. Run
// with -race.
func TestConcurrentMixedAnalyzeEditSessions(t *testing.T) {
	params := circuitgen.Params{Seed: 33, Cells: 110, DFFs: 8, Depth: 5, ClockFanout: 4}
	opts := AnalysisOptions{Mode: Iterative}
	build := func() *Design {
		d, err := Generate(params, Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Serial reference: one result per revision of the edit chain.
	refD := build()
	rng := rand.New(rand.NewSource(77))
	const revs = 4
	refs := make(map[uint64]*AnalysisResult, revs+1)
	r, err := refD.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	refs[0] = r
	var batches [][]Edit
	for k := 1; k <= revs; k++ {
		var b []Edit
		for len(b) == 0 {
			b = incremental.RandomBatch(refD.Circuit, rng, 3)
		}
		batches = append(batches, b)
		if err := refD.Edit(b...); err != nil {
			t.Fatal(err)
		}
		if r, err = refD.Analyze(opts); err != nil {
			t.Fatal(err)
		}
		refs[uint64(k)] = r
	}

	// Concurrent phase on a freshly generated, identical design.
	d := build()
	res0, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if diff := diffResults(refs[0], res0); diff != "" {
		t.Fatalf("generation is not deterministic: %s", diff)
	}

	var mu sync.Mutex
	var fails []string
	fail := func(format string, args ...any) {
		mu.Lock()
		fails = append(fails, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: Edit and Reanalyze, in revision order
		defer wg.Done()
		prev := res0
		for k, b := range batches {
			if k%2 == 0 {
				if err := d.Edit(b...); err != nil {
					fail("writer: edit batch %d: %v", k, err)
					return
				}
				continue
			}
			nr, err := d.Reanalyze(prev, b)
			if err != nil {
				fail("writer: reanalyze batch %d: %v", k, err)
				return
			}
			rev := nr.Replay.Revision()
			ref := refs[rev]
			if ref == nil {
				fail("writer: reanalyze reported unknown revision %d", rev)
				return
			}
			if diff := diffResults(ref, nr); diff != "" {
				fail("writer: revision %d: %s", rev, diff)
				return
			}
			prev = nr
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) { // readers: full analyses of the live revision
			defer wg.Done()
			for it := 0; it < 2; it++ {
				res, err := d.Analyze(opts)
				if err != nil {
					fail("reader %d: %v", g, err)
					return
				}
				rev := res.Replay.Revision()
				ref := refs[rev]
				if ref == nil {
					fail("reader %d: analysis reported unknown revision %d", g, rev)
					return
				}
				if diff := diffResults(ref, res); diff != "" {
					fail("reader %d: revision %d: %s", g, rev, diff)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range fails {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The edit chain must have landed on the final revision, and the
	// snapshot cache must have rebuilt across revisions while serving
	// the readers from the cached builds.
	final, err := d.Analyze(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := final.Replay.Revision(); got != revs {
		t.Fatalf("final revision = %d, want %d", got, revs)
	}
	if diff := diffResults(refs[revs], final); diff != "" {
		t.Fatalf("final revision: %s", diff)
	}
	builds, reuses := d.SnapshotStats()
	if builds < 2 {
		t.Errorf("snapshot builds = %d, want >= 2 (copy-on-write invalidation across revisions)", builds)
	}
	if reuses < 1 {
		t.Errorf("snapshot reuses = %d, want >= 1", reuses)
	}
}
