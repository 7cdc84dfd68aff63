// Heterogeneous-swarm scenario: the paper's Section 2 sets up its fluid
// model for peers categorized into bandwidth classes {C_i(μ_i, c_i)} with
// two sharing assumptions, then specializes to homogeneous peers for the
// evaluation. This example exercises the general model: a torrent shared by
// broadband, cable and DSL users, answering the questions the homogeneous
// model cannot — who waits, and what happens when the fast peers leave
// quickly after finishing.
//
// Run with:
//
//	go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"mfdl/internal/fluid"
	"mfdl/internal/numeric/ode"
)

func main() {
	// Upload bandwidths in files per time unit; download capacities in
	// the same currency (they only set the seed-service split).
	mix := []fluid.Class{
		{Name: "broadband", Mu: 0.06, C: 6, Lambda: 0.3, Gamma: 0.05},
		{Name: "cable", Mu: 0.02, C: 2, Lambda: 0.5, Gamma: 0.05},
		{Name: "dsl", Mu: 0.008, C: 1, Lambda: 0.2, Gamma: 0.05},
	}
	show("mixed swarm, patient seeds (1/γ = 20)", mix)

	// Impatient broadband seeds: the fast uploaders leave 4× sooner
	// after finishing. Everyone slows down — the DSL users most.
	impatient := append([]fluid.Class(nil), mix...)
	impatient[0].Gamma = 0.2
	show("broadband seeds leave 4x sooner", impatient)

	fmt.Println("reading: download times track each class's own upload (tit-for-tat,")
	fmt.Println("assumption 1) plus its share of seed service (∝ download capacity,")
	fmt.Println("assumption 2); when the fast class stops seeding, the whole swarm —")
	fmt.Println("and especially the slowest class — pays.")
}

func show(title string, classes []fluid.Class) {
	m, err := fluid.NewMultiClass(0.5, classes)
	if err != nil {
		log.Fatal(err)
	}
	ss, err := fluid.SteadyState(m, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		log.Fatal(err)
	}
	dl, online, err := m.ClassTimes(ss)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := fluid.Stability(m, ss)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s (stable: %v):\n", title, rep.Stable)
	fmt.Printf("  %-10s %10s %10s %12s\n", "class", "download", "online", "downloaders")
	for i, c := range classes {
		fmt.Printf("  %-10s %10.1f %10.1f %12.1f\n", c.Name, dl[i], online[i], ss[i])
	}
	fmt.Println()
}
