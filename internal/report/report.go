// Package report renders the experiment harness's results in the shape
// of the paper's tables: one row per analysis method with the
// longest-path delay and the analysis runtime, plus the golden
// simulation of the longest path.
package report

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Row is one analysis result.
type Row struct {
	Method  string
	DelayNs float64
	Runtime time.Duration
	// Passes and Evaluations add reproduction detail beyond the paper.
	Passes      int
	Evaluations int64
	// Simulations counts the evaluations that missed the
	// characterization cache and ran a stage simulation.
	Simulations int64
}

// Table mirrors one of the paper's Tables 1–3.
type Table struct {
	Title string
	Rows  []Row
	// GoldenNs is the transistor-level simulation of the longest path
	// (the paper's SPICE column); zero when not run.
	GoldenNs float64
	// GoldenQuietNs is the same path with all aggressors quiet.
	GoldenQuietNs float64
	// Notes collects free-form annotations (wire delay share etc.).
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-16s %12s %12s %8s %14s\n", "Method", "Delay [ns]", "Runtime [s]", "Passes", "Arc evals")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 66))
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-16s %12.3f %12.2f %8d %14d\n",
			r.Method, r.DelayNs, r.Runtime.Seconds(), r.Passes, r.Evaluations)
	}
	if t.GoldenNs > 0 {
		fmt.Fprintf(&b, "%-16s %12.3f   (aligned aggressors; quiet: %.3f)\n",
			"Golden sim", t.GoldenNs, t.GoldenQuietNs)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown renders the table as a GitHub-flavored markdown table (used
// to regenerate EXPERIMENTS.md).
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	fmt.Fprintf(&b, "| Method | Delay [ns] | Runtime [s] | Passes | Arc evals |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s | %.3f | %.2f | %d | %d |\n",
			r.Method, r.DelayNs, r.Runtime.Seconds(), r.Passes, r.Evaluations)
	}
	if t.GoldenNs > 0 {
		fmt.Fprintf(&b, "| Golden sim (aligned) | %.3f | — | — | — |\n", t.GoldenNs)
		fmt.Fprintf(&b, "| Golden sim (quiet) | %.3f | — | — | — |\n", t.GoldenQuietNs)
	}
	b.WriteString("\n")
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "> %s\n", n)
	}
	b.WriteString("\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// CheckShape verifies the paper's qualitative ordering on the rows
// (matched by method name): best < static-doubled, best < worst,
// iterative ≤ one-step ≤ worst (within tol, a relative tolerance that
// absorbs characterization-cache quantization). It returns a list of
// violations, empty when the shape holds.
func (t *Table) CheckShape(tol float64) []string {
	get := func(name string) (float64, bool) {
		for _, r := range t.Rows {
			if r.Method == name {
				return r.DelayNs, true
			}
		}
		return 0, false
	}
	var bad []string
	best, okB := get("Best case")
	dbl, okD := get("Static doubled")
	worst, okW := get("Worst case")
	one, okO := get("One step")
	iter, okI := get("Iterative")
	if okB && okD && !(best < dbl) {
		bad = append(bad, fmt.Sprintf("best (%.3f) !< static doubled (%.3f)", best, dbl))
	}
	if okB && okW && !(best < worst) {
		bad = append(bad, fmt.Sprintf("best (%.3f) !< worst (%.3f)", best, worst))
	}
	if okO && okW && one > worst*(1+tol) {
		bad = append(bad, fmt.Sprintf("one-step (%.3f) > worst (%.3f)", one, worst))
	}
	if okI && okO && iter > one*(1+tol) {
		bad = append(bad, fmt.Sprintf("iterative (%.3f) > one-step (%.3f)", iter, one))
	}
	if okI && okB && best > iter*(1+tol) {
		bad = append(bad, fmt.Sprintf("iterative (%.3f) < best (%.3f): bound broken", iter, best))
	}
	if t.GoldenNs > 0 && okW && t.GoldenNs > worst*(1+tol) {
		bad = append(bad, fmt.Sprintf("golden (%.3f) exceeds worst-case bound (%.3f)", t.GoldenNs, worst))
	}
	return bad
}
