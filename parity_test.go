package xtalksta_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"xtalksta"
)

var updateParity = flag.Bool("update-parity", false, "rewrite testdata/parity_bits.json from the current implementation")

// parityConfig is one cell of the refactor-parity matrix: a mode /
// scheduler / feature combination whose longest-path delay must stay
// Float64bits-identical across memory-layout changes.
type parityConfig struct {
	name string
	opts xtalksta.AnalysisOptions
	eco  bool // apply a coupling edit and Reanalyze, record the seeded result
}

func parityMatrix() []parityConfig {
	cfgs := []parityConfig{}
	for _, m := range xtalksta.Modes() {
		cfgs = append(cfgs, parityConfig{
			name: fmt.Sprintf("%s/dataflow", m),
			opts: xtalksta.AnalysisOptions{Mode: m},
		})
	}
	cfgs = append(cfgs,
		parityConfig{name: "Iterative/levels-w4", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Scheduler: xtalksta.SchedLevels, Workers: 4}},
		parityConfig{name: "OneStep/levels-w2", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.OneStep, Scheduler: xtalksta.SchedLevels, Workers: 2}},
		parityConfig{name: "Iterative/dataflow-w4", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Workers: 4}},
		parityConfig{name: "Iterative/tier0", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Tier0: true}},
		parityConfig{name: "Iterative/esperance", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Esperance: true}},
		parityConfig{name: "Iterative/windows", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Windows: true}},
		parityConfig{name: "Iterative/eco-seeded", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative}, eco: true},
		parityConfig{name: "Iterative/tier0-eco", opts: xtalksta.AnalysisOptions{
			Mode: xtalksta.Iterative, Tier0: true}, eco: true},
	)
	return cfgs
}

var parityCircuits = []struct {
	preset xtalksta.Preset
	scale  float64
}{
	{xtalksta.S35932, 0.02},
	{xtalksta.S38417, 0.02},
}

// computeParityBits runs the full matrix and returns
// "preset/config" → IEEE-754 bits of the longest-path delay.
func computeParityBits(t *testing.T) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, pc := range parityCircuits {
		for _, cfg := range parityMatrix() {
			d, err := xtalksta.GeneratePreset(pc.preset, pc.scale, xtalksta.Defaults())
			if err != nil {
				t.Fatalf("generate %s: %v", pc.preset, err)
			}
			res, err := d.Analyze(cfg.opts)
			if err != nil {
				t.Fatalf("%s/%s: %v", pc.preset, cfg.name, err)
			}
			delay := res.LongestPath
			if cfg.eco {
				pairs := d.CoupledPairs(3)
				if len(pairs) == 0 {
					t.Fatalf("%s: no coupled pairs for the ECO leg", pc.preset)
				}
				edits := []xtalksta.Edit{xtalksta.ScaleCoupling(pairs[0].A, pairs[0].B, 1.75)}
				if len(pairs) > 2 {
					edits = append(edits, xtalksta.ScaleCoupling(pairs[2].A, pairs[2].B, 0.5))
				}
				seeded, err := d.Reanalyze(res, edits)
				if err != nil {
					t.Fatalf("%s/%s reanalyze: %v", pc.preset, cfg.name, err)
				}
				delay = seeded.LongestPath
			}
			out[fmt.Sprintf("%s/%s", pc.preset, cfg.name)] = math.Float64bits(delay)
		}
	}
	return out
}

// TestRefactorParity locks the longest-path delay of every analysis
// mode, both schedulers, esperance/windows and ECO-seeded
// re-analysis (the four tier0 keys run the one exact path now that
// Options.Tier0 is inert) to the bit patterns recorded before the
// SoA/CSR memory-layout refactor (testdata/parity_bits.json). Any
// drift means the refactor changed numerics, not just layout.
func TestRefactorParity(t *testing.T) {
	path := filepath.Join("testdata", "parity_bits.json")
	got := computeParityBits(t)
	if *updateParity {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := make(map[string]string, len(got))
		for _, k := range keys {
			ordered[k] = fmt.Sprintf("%016x", got[k])
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d parity entries to %s", len(got), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden fixture (regenerate with -update-parity ONLY from the pre-refactor tree): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("fixture has %d entries, matrix produced %d", len(want), len(got))
	}
	for k, bits := range got {
		wantHex, ok := want[k]
		if !ok {
			t.Errorf("%s: missing from fixture", k)
			continue
		}
		gotHex := fmt.Sprintf("%016x", bits)
		if gotHex != wantHex {
			t.Errorf("%s: longest path bits %s, fixture %s (Float64 %v vs %v)",
				k, gotHex, wantHex, math.Float64frombits(bits), mustParseBits(t, wantHex))
		}
	}
}

func mustParseBits(t *testing.T, hex string) float64 {
	t.Helper()
	var u uint64
	if _, err := fmt.Sscanf(hex, "%016x", &u); err != nil {
		t.Fatalf("bad fixture hex %q: %v", hex, err)
	}
	return math.Float64frombits(u)
}
