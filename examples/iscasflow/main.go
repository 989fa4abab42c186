// Iscasflow runs the paper's full experiment pipeline on one of the
// ISCAS89-class benchmark circuits: generate → lower → place → route →
// extract → five analyses → golden transistor-level validation of the
// longest path with aggressor alignment.
//
//	go run ./examples/iscasflow            # s38417-like at 5% scale
//	go run ./examples/iscasflow -scale 1   # the paper's full size
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"xtalksta"
)

func main() {
	var (
		preset = flag.String("preset", "s38417", "s35932, s38417 or s38584")
		scale  = flag.Float64("scale", 0.05, "circuit size scale in (0,1]")
	)
	flag.Parse()

	design, err := xtalksta.GeneratePreset(xtalksta.Preset(*preset), *scale, xtalksta.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	stats, err := design.Stats()
	if err != nil {
		log.Fatal(err)
	}
	total, maxNet := design.Layout.WirelengthStats()
	fmt.Printf("%s at scale %.2f: %d cells (%d FFs), %d nets, depth %d\n",
		*preset, *scale, stats.Cells, stats.DFFs, stats.Nets, stats.LogicDepth)
	fmt.Printf("die %.0f x %.0f µm, wirelength %.2f mm (max net %.0f µm)\n\n",
		design.Layout.DieW*1e6, design.Layout.DieH*1e6, total*1e3, maxNet*1e6)

	table, err := design.PaperTable(fmt.Sprintf("%s-like (scale %.2f)", *preset, *scale), true, xtalksta.AnalysisOptions{})
	if err != nil {
		log.Fatal(err)
	}
	if err := table.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	if v := table.CheckShape(0.05); len(v) > 0 {
		fmt.Println("\nWARNING: paper shape violated:")
		for _, s := range v {
			fmt.Println("  -", s)
		}
	} else {
		fmt.Println("\npaper shape holds: best < doubled ≈ iterative ≤ one-step ≤ worst,")
		fmt.Println("and the golden simulation stays below every sound bound.")
	}
}
