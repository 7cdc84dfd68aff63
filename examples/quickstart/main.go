// Quickstart: evaluate all four downloading schemes of the paper on one
// server–torrent system and print the paper's headline metric for each.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/scheme"
)

func main() {
	// A system with 10 interest-correlated files (e.g. a TV season), a
	// visiting rate λ₀ = 1 and a high file correlation: most visitors want
	// most of the files. Peers have the paper's parameters.
	corr, err := correlation.New(10, 0.9, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("average online time per file (lower is better), p = 0.9:")
	var (
		best    scheme.Scheme
		bestRes *metrics.SchemeResult
	)
	for _, sc := range scheme.Schemes {
		res, err := scheme.Evaluate(sc, fluid.PaperParams, corr, scheme.Options{Rho: 0.1}) // μ=0.02, η=0.5, γ=0.05
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s %7.2f\n", sc, res.AvgOnlinePerFile())
		if bestRes == nil || res.AvgOnlinePerFile() < bestRes.AvgOnlinePerFile() {
			best, bestRes = sc, res
		}
	}
	fmt.Printf("\nbest scheme: %s — the paper's proposal wins when files are "+
		"highly correlated.\n", best)

	// Per-class detail for the winner: who gains, who pays.
	fmt.Println("\nper-class online time per file under", best, "(ρ=0.1):")
	for _, cl := range bestRes.Classes {
		if cl.EntryRate == 0 {
			continue
		}
		fmt.Printf("  class %2d (requests %2d files): %6.2f\n",
			cl.Class, cl.Class, cl.OnlinePerFile())
	}
}
