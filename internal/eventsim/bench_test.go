package eventsim

import (
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/faults"
	"mfdl/internal/rng"
	"mfdl/internal/scheme"
)

// benchConfig holds a flash crowd of n peers with a horizon far enough
// away that the benchmark only ever measures steady event processing.
func benchConfig(sc scheme.SimScheme, n int) Config {
	cfg := baseConfig(sc)
	if sc == scheme.SimCMFSD {
		cfg.Rho = 0.3
	}
	cfg.P = 0.9
	cfg.FlashCrowd = n
	cfg.Horizon = 1e18
	cfg.Warmup = 0
	return cfg
}

// newBenchSim builds and initializes a sim without draining its event
// loop (mirrors Run's setup).
func newBenchSim(b testing.TB, cfg Config) *sim {
	b.Helper()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	corr, err := correlation.New(cfg.K, cfg.P, cfg.Lambda0)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := faults.NewPlan(cfg.Faults.Mixed(cfg.Seed), nil)
	if err != nil {
		b.Fatal(err)
	}
	s := &sim{
		cfg:  cfg,
		corr: corr,
		rng:  rng.New(cfg.Seed),
		plan: plan,
		res:  &Result{Config: cfg, Classes: make([]ClassStats, cfg.K)},
	}
	for i := range s.res.Classes {
		s.res.Classes[i].Class = i + 1
	}
	if !s.init() {
		b.Fatal("event loop refused to start")
	}
	return s
}

// benchmarkEventsimStep measures one event at a population of about n
// peers (the flash crowd dwarfs the Poisson arrivals over the measured
// window, so the population stays near n).
func benchmarkEventsimStep(b *testing.B, sc scheme.SimScheme, n int) {
	s := newBenchSim(b, benchConfig(sc, n))
	// Settle: process a slice of events so leg states and rates mix.
	for i := 0; i < 50; i++ {
		if !s.stepOnce() {
			b.Fatal("horizon hit during settle")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.stepOnce() {
			b.Fatal("horizon hit during measurement")
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/secs, "peers/sec")
	}
}

func BenchmarkEventsimStep(b *testing.B) {
	for _, sc := range []scheme.SimScheme{scheme.SimCMFSD, scheme.SimMTCD, scheme.SimMTSD} {
		b.Run(sc.String()+"/n=1000", func(b *testing.B) { benchmarkEventsimStep(b, sc, 1_000) })
		b.Run(sc.String()+"/n=10000", func(b *testing.B) { benchmarkEventsimStep(b, sc, 10_000) })
		b.Run(sc.String()+"/n=100000", func(b *testing.B) {
			if testing.Short() {
				b.Skip("short mode")
			}
			benchmarkEventsimStep(b, sc, 100_000)
		})
	}
}
