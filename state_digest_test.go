package xtalksta_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"testing"

	"xtalksta"
)

var updateStateDigest = flag.Bool("update-state-digest", false, "rewrite testdata/state_digest.json from the current implementation")

// stateDigestMatrix is the refactor-parity matrix plus the feature
// combinations it leaves out: the π-model (with and without windows),
// ECO re-analysis under windows (the seeded min-pass), under Esperance
// (the full-run fallback) and with four workers.
func stateDigestMatrix() []parityConfig {
	return append(parityMatrix(),
		parityConfig{name: "Iterative/pimodel", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, PiModel: true}},
		parityConfig{name: "Iterative/pimodel-windows", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, PiModel: true, Windows: true}},
		parityConfig{name: "Iterative/windows-eco", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Windows: true}, eco: true},
		parityConfig{name: "Iterative/esperance-eco", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Esperance: true}, eco: true},
		parityConfig{name: "Iterative/eco-w4", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Workers: 4}, eco: true},
	)
}

// digestWriter folds values into a SHA-256 in a fixed binary layout.
type digestWriter struct{ h hash.Hash }

func (w digestWriter) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.h.Write(b[:])
}

func (w digestWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w digestWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

func (w digestWriter) pairs(tag string, vs [][2]float64) {
	w.str(tag)
	w.u64(uint64(len(vs)))
	for _, v := range vs {
		w.f64(v[0])
		w.f64(v[1])
	}
}

// stateDigest hashes everything an analysis exposes that a sweep
// refactor could perturb: the final per-net arrivals, slews and
// quiescent times, the work counters, the attributed paths and the
// hold report's earliest endpoint arrivals (the min-pass).
func stateDigest(t *testing.T, res *xtalksta.AnalysisResult, hold *xtalksta.HoldReport) string {
	t.Helper()
	if res.Replay == nil || res.Attribution == nil {
		t.Fatalf("result lacks replay or attribution state")
	}
	w := digestWriter{sha256.New()}
	w.pairs("arrivals", res.Replay.FinalArrivals())
	w.pairs("slews", res.Replay.FinalSlews())
	w.pairs("quiets", res.Replay.FinalQuiets())
	w.str("work")
	w.u64(uint64(res.ArcEvaluations))
	w.u64(uint64(res.Simulations))
	w.str("attribution")
	for _, p := range res.Attribution.Paths {
		w.str(p.Endpoint.Net)
		w.f64(p.Total)
		for _, s := range p.Steps {
			w.str(s.Net)
			w.f64(s.Wire)
			w.f64(s.Gate)
			w.f64(s.QuietGate)
			if s.Exact {
				w.u64(1)
			} else {
				w.u64(0)
			}
		}
	}
	w.str("hold")
	for _, ep := range hold.Endpoints {
		w.str(ep.Net)
		w.f64(ep.Arrival)
	}
	return fmt.Sprintf("%x", w.h.Sum(nil))
}

// computeStateDigests runs the digest matrix, each configuration on a
// freshly generated design, and returns "preset/config" → digest.
func computeStateDigests(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, pc := range parityCircuits {
		for _, cfg := range stateDigestMatrix() {
			key := fmt.Sprintf("%s/%s", pc.preset, cfg.name)
			d, err := xtalksta.GeneratePreset(pc.preset, pc.scale, xtalksta.Defaults())
			if err != nil {
				t.Fatalf("generate %s: %v", pc.preset, err)
			}
			opts := cfg.opts
			opts.Attribution = true
			res, err := d.Analyze(opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if cfg.eco {
				pairs := d.CoupledPairs(3)
				if len(pairs) == 0 {
					t.Fatalf("%s: no coupled pairs for the ECO leg", key)
				}
				edits := []xtalksta.Edit{xtalksta.ScaleCoupling(pairs[0].A, pairs[0].B, 1.75)}
				if len(pairs) > 2 {
					edits = append(edits, xtalksta.ScaleCoupling(pairs[2].A, pairs[2].B, 0.5))
				}
				if res, err = d.Reanalyze(res, edits); err != nil {
					t.Fatalf("%s reanalyze: %v", key, err)
				}
			}
			hold, err := d.ReportHold(opts, 50e-12)
			if err != nil {
				t.Fatalf("%s hold: %v", key, err)
			}
			out[key] = stateDigest(t, res, hold)
		}
	}
	return out
}

// TestStateDigest locks the full observable analysis state — not just
// the longest-path delay TestRefactorParity pins — of every mode,
// scheduler and feature combination, including ECO re-analysis, to the
// digests in testdata/state_digest.json. Any drift means a change
// altered numerics, work counts, attribution or the min-pass.
func TestStateDigest(t *testing.T) {
	path := filepath.Join("testdata", "state_digest.json")
	got := computeStateDigests(t)
	if *updateStateDigest {
		// encoding/json writes map keys sorted.
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d state digests to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-state-digest only from a tree known to be right): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d entries, matrix produced %d", len(want), len(got))
	}
	for k, g := range got {
		w, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from fixture", k)
			continue
		}
		if g != w {
			t.Errorf("%s: state digest %s, fixture %s", k, g, w)
		}
	}
}
