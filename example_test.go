package xtalksta_test

import (
	"fmt"
	"log"
	"strings"

	"xtalksta"
	"xtalksta/internal/netlist"
)

// ExampleFromBench demonstrates the basic flow: parse a netlist, let
// the built-in placer/router extract parasitics, and run the paper's
// iterative crosstalk-aware analysis. (Output is not asserted — delays
// are physical quantities, not golden strings.)
func ExampleFromBench() {
	design, err := xtalksta.FromBench("s27", strings.NewReader(netlist.S27Bench), xtalksta.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	res, err := design.Analyze(xtalksta.AnalysisOptions{Mode: xtalksta.Iterative})
	if err != nil {
		log.Fatal(err)
	}
	if res.LongestPath > 0 {
		fmt.Println("analysis produced a longest path bound")
	}
	// Output: analysis produced a longest path bound
}

// ExampleDesign_PaperTable runs the five-way comparison of the paper's
// evaluation section on a tiny generated circuit.
func ExampleDesign_PaperTable() {
	design, err := xtalksta.GeneratePreset(xtalksta.S35932, 0.005, xtalksta.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	table, err := design.PaperTable("demo", false, xtalksta.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rows:", len(table.Rows), "shape violations:", len(table.CheckShape(0.05)))
	// Output: rows: 5 shape violations: 0
}
