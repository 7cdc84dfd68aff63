package scheme_test

import (
	"fmt"
	"log"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/scheme"
)

// Evaluate the single-torrent and the multi-file concurrent schemes on a
// highly correlated 10-file system and report the paper's headline metric.
func Example() {
	corr, err := correlation.New(10, 0.9, 1) // K, p, λ₀
	if err != nil {
		log.Fatal(err)
	}
	for _, sc := range []scheme.Scheme{scheme.MTSD, scheme.MFCD} {
		res, err := scheme.Evaluate(sc, fluid.PaperParams, corr, scheme.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %.2f\n", sc, res.AvgOnlinePerFile())
	}
	// Output:
	// MTSD 80.00
	// MFCD 97.78
}

// The paper's proposal with full collaboration (ρ = 0) beats MFCD by ~47%
// at high correlation.
func ExampleEvaluate() {
	corr, err := correlation.New(10, 0.9, 1)
	if err != nil {
		log.Fatal(err)
	}
	res, err := scheme.Evaluate(scheme.CMFSD, fluid.PaperParams, corr, scheme.Options{Rho: 0})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CMFSD %.1f\n", res.AvgOnlinePerFile())
	// Output:
	// CMFSD 51.9
}
