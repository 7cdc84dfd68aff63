package experiments

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/scheme"
)

func sweepGrid(t *testing.T) runner.Grid {
	t.Helper()
	g, err := runner.NewGrid(
		runner.Dim{Name: "p", Values: runner.Linspace(0.1, 0.9, 4)},
		runner.Dim{Name: "rho", Values: runner.Linspace(0, 1, 4)},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// The acceptance bar for the whole runner stack: the same grid rendered at
// workers=1 and workers=8 must produce byte-identical tables.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	spec := SweepSpec{
		Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: sweepGrid(t),
	}
	var base string
	for _, workers := range []int{1, 8} {
		spec.Workers = workers
		res, err := Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		out := res.Table().String()
		if base == "" {
			base = out
			continue
		}
		if out != base {
			t.Fatalf("workers=%d table differs from workers=1:\n%s\nvs\n%s", workers, out, base)
		}
	}
	if want := 5 * 5; len(strings.Split(strings.TrimSpace(base), "\n")) != want+3 {
		t.Fatalf("unexpected table:\n%s", base)
	}
}

// Sweeping ρ under MTSD (which ignores ρ) must collapse to one solve.
func TestSweepMemoizesInsensitiveDims(t *testing.T) {
	g, err := runner.NewGrid(runner.Dim{Name: "rho", Values: runner.Linspace(0, 1, 9)})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	res, err := Sweep(context.Background(), SweepSpec{
		Config: PaperConfig, P: 0.9, Scheme: scheme.MTSD, Grid: g,
		Options: Options{Workers: 4, Obs: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := reg.Counter("solvecache_hits_total").Value(), reg.Counter("solvecache_misses_total").Value()
	if misses != 1 || hits != 9 {
		t.Fatalf("hits=%d misses=%d, want 9/1", hits, misses)
	}
	for _, c := range res.Cells[1:] {
		if c.AvgOnline != res.Cells[0].AvgOnline {
			t.Fatal("MTSD varied with rho")
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, SweepSpec{
		Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: sweepGrid(t),
	}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	g, err := runner.NewGrid(runner.Dim{Name: "flux", Values: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(context.Background(), SweepSpec{
		Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: g,
	}); err == nil || !strings.Contains(err.Error(), "flux") {
		t.Fatalf("unknown dimension accepted: %v", err)
	}
	bad := PaperConfig
	bad.K = 0
	if _, err := Sweep(context.Background(), SweepSpec{
		Config: bad, P: 0.9, Scheme: scheme.CMFSD, Grid: sweepGrid(t),
	}); err == nil {
		t.Fatal("K=0 accepted")
	}
	pg, err := runner.NewGrid(runner.Dim{Name: "p", Values: []float64{0.5, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(context.Background(), SweepSpec{
		Config: PaperConfig, P: 0.9, Scheme: scheme.MTSD, Grid: pg,
	}); err == nil {
		t.Fatal("p=2 cell accepted")
	}
}

// The determinism half of the disk-cache acceptance bar: the same grid
// rendered without a cache, with a cold cache, and with a warm cache must
// be byte-identical, and the warm run must serve every solve from disk.
func TestSweepDiskCacheDeterministicAndWarm(t *testing.T) {
	g, err := runner.NewGrid(
		runner.Dim{Name: "p", Values: runner.Linspace(0.3, 0.9, 1)},
		runner.Dim{Name: "rho", Values: runner.Linspace(0, 1, 2)},
	)
	if err != nil {
		t.Fatal(err)
	}
	spec := SweepSpec{Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: g, Options: Options{Workers: 4}}
	plain, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Table().String()

	spec.CacheDir = t.TempDir()
	// Each run reports into a fresh registry.
	count := func(name string) uint64 { return spec.Obs.Counter(name + "_total").Value() }
	spec.Obs = obs.New()
	cold, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := cold.Table().String(); got != want {
		t.Fatalf("cold cached run differs from uncached:\n%s\nvs\n%s", got, want)
	}
	if h, st, m := count("diskcache_hits"), count("diskcache_stores"), count("solvecache_misses"); h != 0 || st != m {
		t.Fatalf("cold run: %d disk hits, %d stores for %d memory misses", h, st, m)
	}

	spec.Obs = obs.New()
	warm, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := warm.Table().String(); got != want {
		t.Fatalf("warm cached run differs from uncached:\n%s\nvs\n%s", got, want)
	}
	if h, dm, m, n := count("diskcache_hits"), count("diskcache_misses"), count("solvecache_misses"), count("solvecache_solves"); h != m || dm != 0 || n != 0 {
		t.Fatalf("warm run: %d disk hits / %d misses for %d memory misses, %d solves", h, dm, m, n)
	}
}

// A sweep killed mid-grid resumes through its solve cache: the rerun
// decodes the solves the killed run persisted, solves only the rest, and
// renders the table of an uninterrupted run byte for byte.
func TestSweepResumesFromSolveCache(t *testing.T) {
	spec := SweepSpec{Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: sweepGrid(t), Options: Options{Workers: 1}}
	spec.Obs = obs.New()
	plain, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want := plain.Table().String()
	distinct := spec.Obs.Counter("solvecache_solves_total").Value()

	// Workers=1 makes the killed run's completed prefix deterministic.
	spec.CacheDir = t.TempDir()
	spec.Obs = nil
	ctx, kill := context.WithCancel(context.Background())
	defer kill()
	done, half := 0, spec.Grid.Size()/2
	spec.Hooks = runner.Hooks{OnCell: func(runner.Point, error) {
		if done++; done == half {
			kill()
		}
	}}
	if _, err := Sweep(ctx, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("killed sweep returned %v, want context.Canceled", err)
	}

	spec.Hooks = runner.Hooks{}
	spec.Obs = obs.New()
	resumed, err := Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Table().String(); got != want {
		t.Fatalf("resumed sweep differs from an uninterrupted one:\n%s\nvs\n%s", got, want)
	}
	hits := spec.Obs.Counter("diskcache_hits_total").Value()
	solves := spec.Obs.Counter("solvecache_solves_total").Value()
	if hits < uint64(half) || solves >= distinct || hits+solves != distinct {
		t.Fatalf("resume: %d disk hits and %d solves for %d distinct keys, %d of them solved before the kill",
			hits, solves, distinct, half)
	}
}

// A caller's cache keeps the registry it was wired to: Sweep reports its
// own cells to spec.Obs but never rewires a cache it did not build — two
// sweeps sharing one cache would otherwise race on its counters, and
// every count would land on whichever registry wired it last.
func TestSweepKeepsCallersCacheRegistry(t *testing.T) {
	own, cache, grid := obs.New(), runner.NewCache(), sweepGrid(t)
	cache.WithObs(own)
	swept := []*obs.Registry{obs.New(), obs.New()}
	var wg sync.WaitGroup
	for _, reg := range swept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Sweep(context.Background(), SweepSpec{
				Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: grid,
				Options: Options{Workers: 2, Cache: cache, Obs: reg},
			}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	cells := uint64(grid.Size())
	if n := own.Counter("solvecache_misses_total").Value() + own.Counter("solvecache_hits_total").Value(); n != 2*cells {
		t.Fatalf("the cache's own registry counted %d lookups, want %d", n, 2*cells)
	}
	for i, reg := range swept {
		for _, name := range []string{"solvecache_hits_total", "solvecache_misses_total", "solvecache_solves_total"} {
			if n := reg.Counter(name).Value(); n != 0 {
				t.Fatalf("sweep %d's registry counted %s = %d; the caller's cache was rewired", i, name, n)
			}
		}
		if n := reg.Counter("runner_cells_completed_total").Value(); n != cells {
			t.Fatalf("sweep %d: runner_cells_completed_total = %d, want %d", i, n, cells)
		}
	}
}

// KScaling's gain ordering must survive the parallel migration.
func TestSweepKDimensionMatchesDirectEvaluation(t *testing.T) {
	g, err := runner.NewGrid(runner.Dim{Name: "k", Values: []float64{2, 5, 10}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Sweep(context.Background(), SweepSpec{
		Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: g,
		Options: Options{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	ks, err := KScaling(context.Background(), PaperConfig, 0.9, []int{2, 5, 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range res.Cells {
		if c.AvgOnline != ks.Rows[i].CMFSD {
			t.Fatalf("k=%v: sweep %v != kscaling %v", c.Values[0], c.AvgOnline, ks.Rows[i].CMFSD)
		}
	}
}

// Fig. 2, E10 and E14 are fluid sweeps run with the caller's Options:
// their cells go through the runner pool (Obs counts them) and their
// solves through the caller's cache, so a second run solves nothing. The
// p = 0 cells are the single-torrent closed form and never reach a grid.
func TestFluidGridsRunAsSweeps(t *testing.T) {
	reg, ctx := obs.New(), context.Background()
	cfg := PaperConfig
	cfg.Options = Options{Workers: 2, Obs: reg, Cache: runner.NewCache().WithObs(reg)}
	ps := []float64{0, 0.5, 1}
	grids := func() {
		t.Helper()
		fig2, err := Fig2(ctx, cfg, ps)
		if err != nil {
			t.Fatal(err)
		}
		if pt := fig2.Points[0]; pt.MTCDOnline != 80 || pt.MTSDOnline != 80 {
			t.Fatalf("p = 0: MTCD %v, MTSD %v; want the closed form's 80", pt.MTCDOnline, pt.MTSDOnline)
		}
		if _, err := EtaAblation(ctx, cfg, []float64{0.25, 0.5}, ps); err != nil {
			t.Fatal(err)
		}
		if _, err := KScaling(ctx, cfg, 0.9, []int{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	count := func(name string) uint64 { return reg.Counter(name).Value() }
	// p = 0 is an ordinary cell. Fig. 2: 2 schemes × 3 p; E10: 2 η × 3 p,
	// of which η = 0.5 is Fig. 2's MTCD; E14: 2 schemes × 3 k.
	grids()
	if cells, solves := count("runner_cells_completed_total"), count("solvecache_solves_total"); cells != 18 || solves != 15 {
		t.Fatalf("first run: %d cells and %d solves, want 18 and 15", cells, solves)
	}
	grids()
	if cells, solves := count("runner_cells_completed_total"), count("solvecache_solves_total"); cells != 36 || solves != 15 {
		t.Fatalf("second run: %d cells and %d solves in all, want 36 and still 15", cells, solves)
	}
}
