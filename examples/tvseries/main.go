// TV-series scenario: a publisher shares a 12-episode season in one
// multi-file torrent. Nearly every visitor wants the whole season (high
// file correlation), which is exactly the situation the paper's CMFSD
// scheme targets. This example answers the publisher's question: how much
// does collaborative sequential downloading save my users, and how should
// ρ be set?
//
// It runs the analysis twice: with the fluid model (instant, the paper's
// methodology) and with the chunk-level swarm simulator (slower, mechanism
// level), and shows both agree on who wins.
//
// Run with:
//
//	go run ./examples/tvseries
package main

import (
	"fmt"
	"log"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/scheme"
	"mfdl/internal/swarm"
)

func main() {
	const (
		episodes = 12
		p        = 0.95 // almost everyone wants the full season
	)
	corr, err := correlation.New(episodes, p, 1)
	if err != nil {
		log.Fatal(err)
	}
	evaluate := func(sc scheme.Scheme, rho float64) *metrics.SchemeResult {
		res, err := scheme.Evaluate(sc, fluid.PaperParams, corr, scheme.Options{Rho: rho})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("season of %d episodes, correlation p = %.2f\n\n", episodes, p)

	mfcd := evaluate(scheme.MFCD, 0)
	fmt.Printf("fluid model, online time per episode:\n")
	fmt.Printf("  MFCD (today's clients, random chunks): %6.1f\n", mfcd.AvgOnlinePerFile())
	for _, rho := range []float64{0.5, 0.1, 0} {
		res := evaluate(scheme.CMFSD, rho)
		gain := (1 - res.AvgOnlinePerFile()/mfcd.AvgOnlinePerFile()) * 100
		fmt.Printf("  CMFSD ρ=%.1f:                          %6.1f  (%.0f%% faster)\n",
			rho, res.AvgOnlinePerFile(), gain)
	}

	// Mechanism-level confirmation with the chunk simulator: pieces,
	// tit-for-tat choking, rarest-first — smaller swarm, same ordering.
	fmt.Printf("\nchunk-level swarm (16-chunk episodes, TFT + rarest-first):\n")
	base := swarm.DefaultConfig
	base.K = 6 // a smaller season keeps the example fast
	base.P = p
	base.Horizon = 2000
	base.Warmup = 400
	for _, setting := range []struct {
		name   string
		scheme scheme.SimScheme
		rho    float64
	}{
		{"MFCD", scheme.SimMFCD, 0},
		{"CMFSD ρ=0.5", scheme.SimCMFSD, 0.5},
		{"CMFSD ρ=0", scheme.SimCMFSD, 0},
	} {
		cfg := base
		cfg.Scheme = setting.scheme
		cfg.Rho = setting.rho
		res, err := swarm.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-12s %6.2f rounds/episode  (%d downloads completed)\n",
			setting.name, res.AvgOnlinePerFile, res.CompletedUsers)
	}
	fmt.Println("\nboth levels agree: publish the season as one torrent and let")
	fmt.Println("peers download sequentially while seeding finished episodes.")
}
