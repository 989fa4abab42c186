// Command perfbench is the xtalksta repository benchmark. One run
// executes one workload from a single process and prints, as the last
// line of standard output, a JSON object with the keys correct,
// attempted, failed and metrics:
//
//	bash perfbench/run.sh --workload paper_s35932 --seed 35932 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json;
// with --trace 1 they are the per-layer ledger, measured by timing the
// calls into the program's packages from outside (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// config is one benchmark invocation.
type config struct {
	workload string
	// seed overrides the preset's circuitgen seed of paper_s35932;
	// seedSet is false when --seed was omitted, which selects the
	// preset's own seed. The other workloads' inputs do not depend on
	// it (README.md gives the measurements behind that).
	seed    int64
	seedSet bool
	seconds float64
	trace   bool
	// scale multiplies the workload's preset scale (1 = as defined);
	// the smoke test shrinks the designs with it.
	scale float64
	// recordDir holds per-binary result records compared across runs
	// ("" disables them).
	recordDir string
}

type workload struct {
	name string
	run  func(cfg config, out *outcome) error
}

var workloads = []workload{
	{"paper_s35932", runPaper},
	{"eco_s38584", runECO},
	{"daemon_s38417", runDaemon},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper_s35932, eco_s38584 or daemon_s38417")
	fs.Int64Var(&cfg.seed, "seed", 0, "circuit seed of paper_s35932 (default: the preset's own)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 = print the per-layer ledger instead of the end-to-end metrics")
	fs.Float64Var(&cfg.scale, "scale", 1, "multiplier on the workload's preset scale (smoke tests)")
	fs.StringVar(&cfg.recordDir, "records", ".bench_build/perfbench-records", "directory of cross-run result records (empty = off)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			cfg.seedSet = true
		}
	})
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 || cfg.scale <= 0 || cfg.scale > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --scale in (0,1]")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	out := newOutcome()
	if err := w.run(cfg, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := out.emit(stdout, cfg.trace); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// outcome collects one run's operation counts, check failures and
// metrics.
type outcome struct {
	attempted, failed int64
	failures          []string
	e2e               map[string]float64
	layers            map[string]float64
	// detail is printed on its own line before the result: sample
	// counts, tail percentiles and checks that do not fit a metric.
	detail map[string]any
}

func newOutcome() *outcome {
	o := &outcome{
		e2e:    make(map[string]float64),
		layers: make(map[string]float64),
		detail: make(map[string]any),
	}
	// A layer the workload does not exercise reads 0 in its ledger.
	for _, m := range perLayer {
		o.layers[m.name] = 0
	}
	return o
}

// check records a failed output check as a failed operation.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// emit prints the detail line, any check failures (to the detail), and
// the result JSON as the last line.
func (o *outcome) emit(w io.Writer, trace bool) error {
	set, vals := endToEnd, o.e2e
	if trace {
		set, vals = perLayer, o.layers
	}
	res := resultLine{
		Correct:   len(o.failures) == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	for _, m := range set {
		v, ok := vals[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if len(o.failures) > 0 {
		sort.Strings(o.failures)
		o.detail["check_failures"] = o.failures
	}
	d, err := json.Marshal(o.detail)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "detail %s\n", d)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

type metricDef struct{ name, unit string }

// endToEnd is the metric set of an untraced run; every workload fills
// every entry. "op" is the workload's unit of work: one five-mode
// sweep (paper_s35932), one Edit+Reanalyze batch (eco_s38584), one
// request, timed from its send (daemon_s38417).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"goodput_per_s", "1/s"},
}

// perLayer is the traced run's ledger (README.md maps each entry to
// the end-to-end metric it should move).
var perLayer = []metricDef{
	{"op.samples", "count"},
	{"op.tail_pct", "%"},
	{"five_mode_s", "s"},
	{"eco_p50_ms", "ms"},
	{"eco_tail_ms", "ms"},
	{"serve_p50_ms", "ms"},
	{"serve_tail_ms", "ms"},
	{"serve_goodput_rps", "1/s"},
	{"gen.s", "s"},
	{"lower.s", "s"},
	{"layout.build_s", "s"},
	{"layout.extract_s", "s"},
	{"device.library_s", "s"},
	{"layout.coupling_pairs", "count"},
	{"setup.residual_s", "s"},
	{"compile.s", "s"},
	{"eco.compile_s", "s"},
	{"run.best_s", "s"},
	{"run.doubled_s", "s"},
	{"run.worst_s", "s"},
	{"run.onestep_s", "s"},
	{"run.iterative_s", "s"},
	{"core.passes_iterative", "count"},
	{"core.other_busy_s", "s"},
	{"core.idle_share", "ratio"},
	{"core.speedup_w2", "ratio"},
	{"core.self_w1_s", "s"},
	{"delaycalc.calls", "count"},
	{"delaycalc.sims", "count"},
	{"delaycalc.hit_ratio", "ratio"},
	{"delaycalc.hit_busy_s", "s"},
	{"delaycalc.miss_busy_s", "s"},
	{"delaycalc.us_per_sim", "us"},
	{"spice.newton_iters", "count"},
	{"spice.newton_per_sim", "ratio"},
	{"spice.newton_failures", "count"},
	{"tier0.bounds_calls", "count"},
	{"tier0.bounds_busy_s", "s"},
	{"tier0.hits", "count"},
	{"tier0.fallbacks", "count"},
	{"eco.apply_s", "s"},
	{"eco.seeded_run_s", "s"},
	{"eco.residual_s", "s"},
	{"eco.dirty_share", "ratio"},
	{"eco.cone_expansions", "count"},
	{"eco.full_fallbacks", "count"},
	{"eco.sims_per_batch", "count"},
	{"server.hit_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"},
	{"server.edit_p50_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesce_hits", "count"},
	{"server.analyses", "count"},
	{"server.shed", "count"},
	{"server.snapshot_builds", "count"},
	{"load.late_max_ms", "ms"},
	{"mem.live_heap_mb_after_setup", "MB"},
	{"trace.overhead", "ratio"},
}
