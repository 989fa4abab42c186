package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestMetricSetsMatchBenchmarkFile keeps the emitted metric sets and
// BENCHMARK.json identical, names and units alike.
func TestMetricSetsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchmarkFile(t)
	compare := func(what string, file []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", what, len(file), len(code))
		}
		for i := range file {
			if i < len(code) && (file[i].Name != code[i].name || file[i].Unit != code[i].unit) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]", what, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd)
	compare("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, benchmark %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload once at a tiny scale, untraced and
// traced, and checks that each run is correct and prints every metric
// of BENCHMARK.json with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	records := t.TempDir()
	for _, w := range bf.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "0.5",
					"--trace", trace, "--scale", "0.2", "--records", records}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("run not correct: %s", stdout.String())
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics emitted, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
				}
			})
		}
	}
}

func TestTail(t *testing.T) {
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	if v, pct := s.tail(); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	var long samples
	for i := 1; i <= 1000; i++ {
		long = append(long, float64(i))
	}
	if v, pct := long.tail(); v != 900 || pct != 90 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 900 at p90", v, pct)
	}
	if v, pct := s[:5].tail(); v != 3 || pct != 50 {
		t.Errorf("tail of 1..5 = %v at p%v, want the median 3 at p50", v, pct)
	}
	if m := s[:4].median(); m != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", m)
	}
}
