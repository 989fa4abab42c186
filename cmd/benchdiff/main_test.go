package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadWithEnv(t *testing.T) {
	p := writeTemp(t, "bench.json", `{
		"circuit": "s35932 scale=0.05",
		"env": {"go_version": "go1.24.0", "gomaxprocs": 16, "workers": 8,
		        "scheduler": "dataflow", "git_revision": "abc123def456"},
		"rows": [{"method": "Iterative", "delay_ns": 1.5, "runtime_ms": 800,
		          "passes": 3, "arc_evaluations": 10000}]
	}`)
	f, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Env == nil {
		t.Fatal("env not parsed")
	}
	want := "go1.24.0 gomaxprocs=16 workers=8 sched=dataflow rev=abc123def456"
	if got := envString(f); got != want {
		t.Errorf("envString = %q, want %q", got, want)
	}
	if f.Rows[0].DelayNs != 1.5 {
		t.Errorf("delay = %v, want 1.5", f.Rows[0].DelayNs)
	}
}

func TestLoadWithoutEnv(t *testing.T) {
	// Files recorded before environment stamping (PR 3 and earlier) must
	// still load and be flagged as unattributed.
	p := writeTemp(t, "old.json", `{
		"circuit": "s35932 scale=0.05",
		"rows": [{"method": "Best case", "delay_ns": 1.0}]
	}`)
	f, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Env != nil {
		t.Fatalf("expected nil env, got %+v", f.Env)
	}
	if got := envString(f); got != "(no environment recorded)" {
		t.Errorf("envString = %q", got)
	}
}

func TestLoadRejectsEmpty(t *testing.T) {
	p := writeTemp(t, "empty.json", `{"circuit": "x", "rows": []}`)
	if _, err := load(p); err == nil {
		t.Fatal("expected an error for a file with no rows")
	}
}

// TestLoadServerAndLatencySections: files recorded before the
// "latency" and "server" sections were retired (the checked-in
// baseline carries a latency block) still load, rows intact.
func TestLoadServerAndLatencySections(t *testing.T) {
	p := writeTemp(t, "bench.json", `{
		"circuit": "x",
		"rows": [{"method": "Iterative", "delay_ns": 1.5}],
		"latency": {"analysis_p50_ms": 10.5, "analysis_p99_ms": 31.0},
		"server": {"analyze_p50_ms": 0.2, "throughput_rps": 9000, "requests": 43131}
	}`)
	f, err := load(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 1 || f.Rows[0].DelayNs != 1.5 {
		t.Errorf("rows = %+v, want one Iterative row at 1.5 ns", f.Rows)
	}
}

// TestDiffWarnOnlyNeverGates: the warn-only diff flags drift but
// must never produce a failure — only a warn count.
func TestDiffWarnOnly(t *testing.T) {
	base := map[string]float64{"p50_ms": 1.0, "p99_ms": 4.0, "rps": 1000}
	cand := map[string]float64{"p50_ms": 1.1, "p99_ms": 8.0, "rps": 990}
	if got := diffWarnOnly("server", base, cand, 25); got != 1 {
		t.Errorf("warned rows = %d, want 1 (only p99 doubled)", got)
	}
	if got := diffWarnOnly("server", base, cand, 5); got != 2 {
		t.Errorf("warned rows at 5%% = %d, want 2", got)
	}
	// Missing sections on either side are informational no-ops.
	if got := diffWarnOnly("server", nil, cand, 25); got != 0 {
		t.Errorf("no-baseline warned = %d, want 0", got)
	}
	if got := diffWarnOnly("server", base, nil, 25); got != 0 {
		t.Errorf("no-candidate warned = %d, want 0", got)
	}
	if got := diffWarnOnly("server", nil, nil, 25); got != 0 {
		t.Errorf("both-missing warned = %d, want 0", got)
	}
	// A zero baseline with a nonzero candidate is infinite drift: warned.
	if got := diffWarnOnly("server", map[string]float64{"x": 0}, map[string]float64{"x": 3}, 25); got != 1 {
		t.Errorf("zero-baseline warned = %d, want 1", got)
	}
}
