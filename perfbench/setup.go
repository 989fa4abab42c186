package main

import (
	"fmt"
	"time"

	"xtalksta"
	"xtalksta/internal/ccc"
	"xtalksta/internal/circuitgen"
	"xtalksta/internal/core"
	"xtalksta/internal/layout"
	"xtalksta/internal/netlist"
)

// cliOptions are the analysis options cmd/xtalksta ships with for the
// benchmark's runs: dataflow scheduler, tier-0 on at its default
// margin, -workers 2.
func cliOptions(mode core.Mode) core.Options {
	return core.Options{
		Mode:        mode,
		Workers:     2,
		Scheduler:   core.SchedDataflow,
		Tier0:       true,
		Tier0Margin: 0.05,
	}
}

// presetParams returns the generator parameters of a preset at the
// given scale. The scaling mirrors circuitgen.GeneratePreset.
func presetParams(p circuitgen.Preset, scale float64) (circuitgen.Params, error) {
	params, err := circuitgen.PresetParams(p)
	if err != nil {
		return params, err
	}
	if scale < 1 {
		params.Cells = int(float64(params.Cells) * scale)
		params.DFFs = int(float64(params.DFFs) * scale)
		if params.DFFs < 1 {
			params.DFFs = 1
		}
		params.POs = int(float64(params.POs)*scale) + 1
		params.Name = fmt.Sprintf("%s@%.2f", params.Name, scale)
	}
	return params, nil
}

// stageTimes are the wall times of the set-up stages, each measured
// around one call into the program.
type stageTimes struct {
	gen, lower, build, extract, library time.Duration
	couplingPairs                       int
}

func (s stageTimes) sum() time.Duration {
	return s.gen + s.lower + s.build + s.extract + s.library
}

// buildDesign runs generate → lower → place/route → extract → device
// library and calculator, the stages of xtalksta.FromCircuit, one call
// at a time so each can be timed.
func buildDesign(params circuitgen.Params, bopts xtalksta.BuildOptions) (*xtalksta.Design, stageTimes, error) {
	var st stageTimes
	t := time.Now()
	lap := func(d *time.Duration) {
		now := time.Now()
		*d = now.Sub(t)
		t = now
	}
	c, err := circuitgen.Generate(params)
	if err != nil {
		return nil, st, err
	}
	lap(&st.gen)
	if err := netlist.Lower(c); err != nil {
		return nil, st, err
	}
	lap(&st.lower)
	l, err := layout.Build(c, bopts.Layout)
	if err != nil {
		return nil, st, err
	}
	lap(&st.build)
	proc := bopts.Process
	if err := l.Extract(proc, ccc.PinCapFunc(c, proc, ccc.DefaultSizing(proc)), bopts.POCap); err != nil {
		return nil, st, err
	}
	lap(&st.extract)
	d, err := xtalksta.FromExtracted(c, bopts)
	if err != nil {
		return nil, st, err
	}
	lap(&st.library)
	for _, n := range c.Nets {
		st.couplingPairs += len(n.Par.Couplings)
	}
	st.couplingPairs /= 2
	return d, st, nil
}

// setupLedger accumulates the per-stage medians of repeated set-ups.
type setupLedger struct {
	gen, lower, build, extract, library, compile, residual, total samples
	couplingPairs                                                 int
}

// add records one set-up: its stages, the compile time (0 when the
// workload compiles lazily), the time of any further timed child (the
// initial analysis of eco_s38584) and the parent wall time.
func (l *setupLedger) add(st stageTimes, compile, other, total time.Duration) {
	l.gen = append(l.gen, seconds(st.gen))
	l.lower = append(l.lower, seconds(st.lower))
	l.build = append(l.build, seconds(st.build))
	l.extract = append(l.extract, seconds(st.extract))
	l.library = append(l.library, seconds(st.library))
	l.compile = append(l.compile, seconds(compile))
	l.residual = append(l.residual, seconds(total-st.sum()-compile-other))
	l.total = append(l.total, seconds(total))
	l.couplingPairs = st.couplingPairs
}

// setupResidualShare is the largest share of a set-up's wall time the
// timed stages may leave unaccounted for; the remainder is the glue
// between the calls (cache clear, timer reads).
const setupResidualShare = 0.05

// report fills the set-up ledger entries and checks that the children
// neither exceed their parent nor miss it by more than the residual.
func (l *setupLedger) report(out *outcome) {
	out.layers["gen.s"] = l.gen.median()
	out.layers["lower.s"] = l.lower.median()
	out.layers["layout.build_s"] = l.build.median()
	out.layers["layout.extract_s"] = l.extract.median()
	out.layers["device.library_s"] = l.library.median()
	out.layers["compile.s"] = l.compile.median()
	out.layers["setup.residual_s"] = l.residual.median()
	out.layers["layout.coupling_pairs"] = float64(l.couplingPairs)
	for i, r := range l.residual {
		out.check(r >= 0 && r <= setupResidualShare*l.total[i],
			"set-up %d: stages leave %.4f s of %.4f s unaccounted (allowed 0..%.0f%%)", i, r, l.total[i], 100*setupResidualShare)
	}
}
