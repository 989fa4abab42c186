// Quickstart: generate a small synthetic sequential circuit, run all
// five crosstalk analyses, and print the paper-style table plus the
// critical path of the iterative (tightest sound) analysis.
package main

import (
	"fmt"
	"log"
	"os"

	"xtalksta"
	"xtalksta/internal/circuitgen"
)

func main() {
	// 1. Build a design: 800 cells, 60 flip-flops, a clock tree, placed
	//    and routed in the 0.5 µm two-metal process, parasitics
	//    extracted (ground caps, wire R, coupling caps to the specific
	//    neighboring nets).
	design, err := xtalksta.Generate(circuitgen.Params{
		Seed:        2026,
		Cells:       800,
		DFFs:        60,
		Depth:       12,
		ClockFanout: 8,
	}, xtalksta.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	stats, err := design.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("circuit: %d cells (%d flip-flops), %d nets, logic depth %d\n\n",
		stats.Cells, stats.DFFs, stats.Nets, stats.LogicDepth)

	// 2. Run the five analyses of the paper's evaluation and render the
	//    table (Tables 1-3 format).
	table, err := design.PaperTable("quickstart circuit", false, xtalksta.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the critical path of the iterative analysis.
	res, err := design.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.Iterative})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncritical path (%d stages, ends at %s %s):\n",
		len(res.Path)-1, res.Endpoint.Net, res.Endpoint.Kind)
	for _, step := range res.Path {
		cell := step.Cell
		if cell == "" {
			cell = "(launch)"
		}
		fmt.Printf("  %7.3f ns  %-4s  %-12s  %s\n", step.Arrival*1e9, step.Dir, step.Net, cell)
	}
}
