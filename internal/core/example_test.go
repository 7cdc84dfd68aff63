package core_test

import (
	"fmt"
	"log"

	"mfdl/internal/core"
	"mfdl/internal/fluid"
	"mfdl/internal/scheme"
)

// Evaluate all four downloading schemes on a highly correlated 10-file
// system and report the paper's headline metric.
func Example() {
	sys, err := core.NewSystem(core.Config{
		Params:  fluid.PaperParams, // μ=0.02, η=0.5, γ=0.05
		K:       10,
		Lambda0: 1,
		P:       0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, sc := range []core.Scheme{scheme.MTSD, core.MFCD} {
		res, err := sys.Evaluate(sc)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %.2f\n", sc, res.AvgOnlinePerFile())
	}
	// Output:
	// MTSD 80.00
	// MFCD 97.78
}

// The paper's proposal with full collaboration beats MFCD by ~47% at high
// correlation.
func ExampleSystem_Evaluate() {
	sys, err := core.NewSystem(core.Config{
		Params: fluid.PaperParams, K: 10, Lambda0: 1, P: 0.9,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Evaluate(core.CMFSD, core.WithRho(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CMFSD %.1f\n", res.AvgOnlinePerFile())
	// Output:
	// CMFSD 51.9
}
