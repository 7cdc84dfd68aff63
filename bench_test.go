// Benchmarks, one per table/figure of the paper plus the extension
// experiments (DESIGN.md §4). Each benchmark regenerates its artifact end
// to end, so `go test -bench=.` both measures the harness and proves every
// experiment still runs. Shape assertions (who wins, by what factor) live
// in the package test suites; the benchmarks only re-derive the artifacts.
package mfdl_test

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"mfdl/internal/adapt"
	"mfdl/internal/experiments"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/scheme"
	"mfdl/internal/swarm"
)

// BenchmarkFig2 regenerates Figure 2: average online time per file vs file
// correlation, MTCD vs MTSD (experiment E2).
func BenchmarkFig2(b *testing.B) {
	grid := experiments.PGrid(0, 1, 20)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(experiments.PaperConfig, grid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3 regenerates Figure 3: per-class times at p = 0.1 and 1.0
// (experiment E3).
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, p := range []float64{0.1, 1.0} {
			if _, err := experiments.Fig3(experiments.PaperConfig, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig4A regenerates Figure 4(a): the CMFSD p × ρ surface
// (experiment E4). The grid is coarser than the CLI's to keep -bench runs
// minutes-scale; each cell is a full RK4 relaxation of the 65-state Eq. (5).
func BenchmarkFig4A(b *testing.B) {
	pGrid := []float64{0.1, 0.5, 0.9}
	rhoGrid := []float64{0, 0.5, 1}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4A(context.Background(), experiments.PaperConfig, pGrid, rhoGrid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel measures the sweep engine on a CMFSD p × ρ grid
// (the Figure 4(a) workload) at several worker counts. The workers=1 case
// is the serial baseline; on an N-core machine the parallel cases should
// approach N× (every cell is an independent 65-state RK4 relaxation). The
// grid result is asserted byte-identical across worker counts in
// cmd/sweep's and internal/experiments' test suites; here we only record
// the time.
func BenchmarkSweepParallel(b *testing.B) {
	grid, err := runner.NewGrid(
		runner.Dim{Name: "p", Values: runner.Linspace(0.1, 1, 5)},
		runner.Dim{Name: "rho", Values: runner.Linspace(0, 1, 5)},
	)
	if err != nil {
		b.Fatal(err)
	}
	counts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := experiments.Sweep(context.Background(), experiments.SweepSpec{
					Config: experiments.PaperConfig, P: 0.9,
					Scheme: scheme.CMFSD, Grid: grid,
					Options: experiments.Options{Workers: workers},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepDiskCache measures the persistent solve cache on the
// Figure 4(a) workload: "cold" solves every cell and persists it into a
// fresh directory; "warm" replays the same grid against an already
// populated directory, so every cell is a disk decode instead of an RK4
// relaxation. The warm case should be orders of magnitude faster; the
// test suites assert the outputs are byte-identical.
func BenchmarkSweepDiskCache(b *testing.B) {
	grid, err := runner.NewGrid(
		runner.Dim{Name: "p", Values: runner.Linspace(0.1, 1, 5)},
		runner.Dim{Name: "rho", Values: runner.Linspace(0, 1, 5)},
	)
	if err != nil {
		b.Fatal(err)
	}
	spec := experiments.SweepSpec{
		Config: experiments.PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: grid,
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			spec.CacheDir = filepath.Join(b.TempDir(), fmt.Sprintf("c%d", i))
			if _, err := experiments.Sweep(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		spec.CacheDir = b.TempDir()
		if _, err := experiments.Sweep(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
		reg := obs.New()
		spec.Obs = reg
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := experiments.Sweep(context.Background(), spec); err != nil {
				b.Fatal(err)
			}
		}
		if n := reg.Counter("solvecache_solves_total").Value(); n != 0 {
			b.Fatalf("warm runs re-solved %d cells", n)
		}
	})
}

// BenchmarkFig4B regenerates Figure 4(b): per-class times at p = 0.9,
// CMFSD ρ ∈ {0.1, 0.9} vs MFCD (experiment E5).
func BenchmarkFig4B(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4BC(experiments.PaperConfig, 0.9, 0.1, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4C regenerates Figure 4(c): the same panel at p = 0.1
// (experiment E6).
func BenchmarkFig4C(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4BC(experiments.PaperConfig, 0.1, 0.1, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate regenerates the K = 1 degeneracy check against the
// Qiu–Srikant closed form (experiment E7, the paper's model-correctness
// argument).
func BenchmarkValidate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Validate(experiments.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdapt regenerates the Adapt-under-cheating sweep (experiment
// E8, the paper's future-work evaluation) on the flow-level simulator.
func BenchmarkAdapt(b *testing.B) {
	set := experiments.DefaultSimSettings
	set.Horizon = 1500
	set.Warmup = 300
	ac := adapt.Config{
		Lower: -0.05, Upper: 0.05, StepUp: 0.2, StepDown: 0.1,
		Period: 5, InitialRho: 0, Consecutive: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Seed = uint64(i + 1)
		if _, err := experiments.AdaptSweep(context.Background(), set, 0.9, ac, []float64{0, 0.5, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimValidate regenerates the fluid-vs-simulation comparison for
// all four schemes (experiment E9).
func BenchmarkSimValidate(b *testing.B) {
	set := experiments.DefaultSimSettings
	set.Horizon = 1500
	set.Warmup = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set.Seed = uint64(i + 1)
		if _, err := experiments.SimValidate(context.Background(), set, []float64{0.9}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSwarmCompare regenerates the chunk-level MFCD vs CMFSD
// comparison (mechanism-level replay of Figure 4(a)'s ordering).
func BenchmarkSwarmCompare(b *testing.B) {
	base := swarm.DefaultConfig
	base.Horizon = 800
	base.Warmup = 200
	for i := 0; i < b.N; i++ {
		opts := experiments.Options{Seed: uint64(i + 1), Replicas: 1}
		if _, err := experiments.SwarmCompare(context.Background(), base, []float64{0, 1}, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransient regenerates the flash-crowd transient comparison
// (experiment E13): fluid Eq. (5) trajectory vs one simulated path.
func BenchmarkTransient(b *testing.B) {
	set := experiments.DefaultSimSettings
	set.Horizon = 150
	for i := 0; i < b.N; i++ {
		set.Seed = uint64(i + 1)
		if _, err := experiments.Transient(context.Background(), set, 0.9, 0, 300); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheatingSweep regenerates the fluid mixed-population cheating
// study (the analytic counterpart of E8).
func BenchmarkCheatingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CheatingSweep(experiments.PaperConfig, 0.9, 0,
			[]float64{0, 0.5, 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKScaling regenerates the collaboration-gain-vs-K study (E14).
func BenchmarkKScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.KScaling(experiments.PaperConfig, 0.9,
			[]int{2, 5, 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEtaAblation regenerates the η-sensitivity study (experiment
// E10).
func BenchmarkEtaAblation(b *testing.B) {
	etas := []float64{0.25, 0.5, 0.75, 1.0}
	grid := experiments.PGrid(0, 1, 20)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.EtaAblation(context.Background(), experiments.PaperConfig, etas, grid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStability regenerates the spectral-abscissa table for the fluid
// fixed points (experiment E11).
func BenchmarkStability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.StabilityTable(experiments.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCrossover regenerates the per-class MTCD/MTSD break-even
// correlations.
func BenchmarkCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Crossover(experiments.PaperConfig); err != nil {
			b.Fatal(err)
		}
	}
}
