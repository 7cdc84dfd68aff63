// Command sweep runs parameter sweeps of the fluid models: pick one or
// more dimensions (p, rho, k, mu, gamma, eta, lambda0, theta), a range
// per dimension, and a scheme, and it prints the average online and
// download time per file over the full grid. This generalizes the paper's figures
// to arbitrary axes — e.g. how the CMFSD gain varies with swarm scale or
// with seed patience 1/γ — and, with several dimensions, regenerates whole
// surfaces like Figure 4(a) in one call.
//
// Grid cells are independent steady-state solves: they fan out over a
// bounded worker pool (-workers, default all cores) and the output is
// byte-identical at every worker count. Cells whose parameters coincide
// (for instance a ρ axis under a scheme that ignores ρ) are solved once.
//
// Usage:
//
//	sweep -dim rho -from 0 -to 1 -steps 10 -scheme CMFSD -p 0.9
//	sweep -dim p,rho -from 0.1,0 -to 1,1 -steps 9,10 -workers 8 -scheme CMFSD
//	sweep -dim p,rho -steps 9,10 -cache-dir ~/.cache/mfdl -stats
//
// -from, -to and -steps accept either a single value (applied to every
// dimension) or one comma-separated value per dimension.
//
// With -cache-dir the solves persist across invocations, each as it
// completes: a repeated run over the same grid decodes every cell from
// disk instead of re-solving it, and a run killed mid-grid (crash,
// SIGKILL, power loss) resumes on the next invocation from the cells it
// solved — either way the output is byte-identical. -stats reports on
// stderr how many cells collapsed into shared (memory) or pre-computed
// (disk) solves, the disk store's entry count and size, and the
// wall-clock spent in each phase (setup, solve, render). -cache-prune-age and -cache-prune-size trim the
// disk store before the sweep: by entry age, or down to a byte budget
// evicting least-recently-used entries first (reads refresh recency).
//
// To spread the same grid over processes or machines, run it with
// `sweepd serve`: its table is this one, byte for byte.
package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"time"

	"flag"

	"mfdl/internal/experiments"
	"mfdl/internal/gridflag"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	start := time.Now()
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		workers = fs.Int("workers", 0, "worker pool size (0 = all cores)")
		verbose = fs.Bool("progress", false, "report per-cell progress on stderr")
		stats   = fs.Bool("stats", false, "print cache hit rates, disk usage and per-phase wall-clock on stderr")
	)
	var (
		ff   gridflag.Fluid
		ofl  obs.Flags
		ofmt gridflag.Format
		cf   = gridflag.Store{Name: "cache"}
	)
	ff.Register(fs, "")
	ofl.Register(fs)
	ofmt.Register(fs)
	cf.Register(fs, "persistent solve-cache directory shared across runs (empty = in-memory only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	spec, err := ff.Spec()
	if err != nil {
		return err
	}
	if err := ofmt.Validate(); err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", *workers)
	}
	if _, err := gridflag.Open(&cf, "sweep", diskcache.Open); err != nil {
		return err
	}

	// A registry exists only when something will consume it (-stats and
	// -progress render from it; -metrics-out/-trace-out/-pprof export
	// it). Otherwise spec.Obs stays nil and every instrumentation site in
	// the runner and caches is on the zero-cost fast path — the table on
	// stdout is byte-identical either way.
	reg, finishObs, err := ofl.Setup(*stats || *verbose)
	if err != nil {
		return err
	}
	spec.Options, spec.CacheDir = experiments.Options{Workers: *workers, Obs: reg}, cf.Dir
	if *verbose {
		// Progress renders from the registry's completed-cell counter:
		// cells/sec over the solve phase so far, and the ETA for the rest
		// of the grid at that rate.
		total := spec.Grid.Size()
		completed := reg.Counter("runner_cells_completed_total")
		failed := reg.Counter("runner_cells_failed_total")
		solveStart := time.Now()
		first := true
		spec.Hooks = runner.Hooks{OnCell: func(pt runner.Point, err error) {
			if first {
				solveStart = time.Now()
				first = false
			}
			done := int(completed.Value() + failed.Value())
			line := fmt.Sprintf("sweep: %d/%d (%s)", done, total, pt.Label())
			if elapsed := time.Since(solveStart).Seconds(); elapsed > 0 && done > 1 {
				rate := float64(done) / elapsed
				eta := time.Duration(float64(total-done) / rate * float64(time.Second))
				line += fmt.Sprintf(" %.1f cells/s eta %s", rate, eta.Round(10*time.Millisecond))
			}
			fmt.Fprintln(os.Stderr, line)
		}}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	phase := reg.Gauge // nil-safe; three samples land as sweep_phase_seconds{phase=...}
	setup := time.Since(start)
	res, err := experiments.Sweep(ctx, spec)
	if err != nil {
		return err
	}
	solve := time.Since(start) - setup
	if err := res.Table().Write(os.Stdout, string(ofmt)); err != nil {
		return err
	}
	render := time.Since(start) - setup - solve
	phase("sweep_phase_seconds", obs.L("phase", "setup")).Set(setup.Seconds())
	phase("sweep_phase_seconds", obs.L("phase", "solve")).Set(solve.Seconds())
	phase("sweep_phase_seconds", obs.L("phase", "render")).Set(render.Seconds())
	if reg != nil {
		snapshotDerived(reg, len(res.Cells), cf.Dir)
	}
	if *stats || *verbose {
		printStats(os.Stderr, reg, cf.Dir)
	}
	return finishObs()
}

// snapshotDerived folds end-of-run derived values into the registry so
// both -stats and the -metrics-out snapshot render from one source:
// the cell count, the cache hit ratio and the disk store's footprint.
func snapshotDerived(reg *obs.Registry, cells int, cacheDir string) {
	reg.Gauge("sweep_cells").Set(float64(cells))
	hits := reg.Counter("solvecache_hits_total").Value()
	misses := reg.Counter("solvecache_misses_total").Value()
	if total := hits + misses; total > 0 {
		reg.Gauge("solvecache_hit_ratio").Set(float64(hits) / float64(total))
	}
	if cacheDir != "" {
		if store, err := diskcache.Open(cacheDir); err == nil {
			if entries, bytes, err := store.Usage(); err == nil {
				reg.Gauge("diskcache_entries").Set(float64(entries))
				reg.Gauge("diskcache_bytes").Set(float64(bytes))
			}
		}
	}
}

// printStats renders the -stats report from the registry: how the
// grid's cells collapsed into shared and pre-computed solves, the disk
// store's footprint, and where the wall-clock went.
func printStats(w *os.File, reg *obs.Registry, cacheDir string) {
	count := func(name string) uint64 { return reg.Counter(name).Value() }
	fmt.Fprintf(w, "sweep: %d cells: memory %d hits / %d misses",
		int(reg.Gauge("sweep_cells").Value()),
		count("solvecache_hits_total"), count("solvecache_misses_total"))
	if cacheDir != "" {
		fmt.Fprintf(w, "; disk %d hits / %d misses (%d stored, %d corrupt, %d evicted)",
			count("diskcache_hits_total"), count("diskcache_misses_total"),
			count("diskcache_stores_total"), count("diskcache_corrupt_total"),
			count("diskcache_evicted_total"))
	}
	fmt.Fprintf(w, "; %d solved\n", count("solvecache_solves_total"))
	if cacheDir != "" {
		fmt.Fprintf(w, "sweep: disk cache: %d entries, %d bytes\n",
			int(reg.Gauge("diskcache_entries").Value()), int64(reg.Gauge("diskcache_bytes").Value()))
	}
	ms := func(phase string) float64 {
		return reg.Gauge("sweep_phase_seconds", obs.L("phase", phase)).Value() * 1000
	}
	fmt.Fprintf(w, "sweep: phase setup %.1fms | solve %.1fms | render %.1fms\n",
		ms("setup"), ms("solve"), ms("render"))
}
