package experiments

import (
	"context"
	"fmt"
	"strings"

	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
	"mfdl/internal/table"
)

// SweepSpec describes a multi-dimensional parameter study of one scheme:
// a base operating point plus an N-dimensional grid of overrides. Cells
// are independent steady-state solves, so Sweep fans them out over a
// worker pool and memoizes solves that coincide (e.g. sweeping ρ under a
// scheme that ignores it).
//
// A SweepSpec lowers to a serializable runner.JobSpec (see JobSpec), so
// the same study can run locally, resume from a persistent solve cache, or
// be distributed across fabric workers — all byte-identically.
type SweepSpec struct {
	// Config is the base operating point; swept dimensions override its
	// fields cell by cell.
	Config Config
	// P is the base file correlation.
	P float64
	// Rho is the base CMFSD allocation ratio.
	Rho float64
	// Theta is the base downloader abort rate θ (0 keeps the paper's
	// closed forms).
	Theta float64
	// Scheme is the evaluated scheme.
	Scheme scheme.Scheme
	// Grid holds the swept dimensions; names must come from
	// runner.KeyDims.
	Grid runner.Grid
	// Options is the shared execution-option surface (workers, obs, seed,
	// cache). Options.Cache, when set, takes precedence over CacheDir.
	Options
	// CacheDir, when non-empty, backs the solve cache with a persistent
	// cross-process store in that directory: cells already solved by any
	// previous run (or process) are decoded instead of re-solved, and
	// fresh solves are persisted as they complete — so a killed sweep
	// rerun with the same directory redoes only the solves it lost.
	// Results are byte-identical with or without it.
	CacheDir string
	// Hooks observe per-cell progress.
	Hooks runner.Hooks
}

// JobSpec lowers the sweep to its serializable job description — the one
// type the local runner, the fabric coordinator and its workers all
// speak. Two specs that lower to the same JobSpec fingerprint compute
// bit-identical tables.
func (s SweepSpec) JobSpec() runner.JobSpec {
	return runner.JobSpec{
		Schema: runner.JobSpecSchemaVersion,
		Kind:   runner.JobKindFluidSweep,
		Base: runner.Key{
			Scheme: s.Scheme, Params: s.Config.Params,
			K: s.Config.K, P: s.P, Lambda0: s.Config.Lambda0, Rho: s.Rho,
			Theta: s.Theta,
		},
		Dims:     s.Grid.Dims(),
		Seed:     s.Options.Seed,
		Replicas: s.Options.Replicas,
	}
}

// SweepCell is the evaluation of one grid cell. It is the runner's
// CellValue — the exact payload that crosses the fabric wire.
type SweepCell = runner.CellValue

// SweepResult holds the evaluated grid in row-major cell order.
type SweepResult struct {
	Spec  SweepSpec
	Cells []SweepCell
}

// Sweep evaluates the scheme over every cell of the grid. Results are
// deterministic: cell order, values and errors are independent of the
// worker count — and of whether the cells were computed locally or by
// fabric workers against the same JobSpec.
func Sweep(ctx context.Context, spec SweepSpec) (*SweepResult, error) {
	// A caller's cache keeps the registry it was wired to (and may be in
	// use by another sweep); only a cache built here reports to spec.Obs.
	cache := spec.Options.Cache
	if cache == nil {
		cache = runner.NewCache()
		if spec.CacheDir != "" {
			disk, err := diskcache.Open(spec.CacheDir)
			if err != nil {
				return nil, err
			}
			cache = runner.NewDiskCache(disk)
		}
		cache.WithObs(spec.Obs)
	}
	cells, err := runner.RunJob(ctx, spec.JobSpec(), cache, runner.Options{
		Workers: spec.Workers, Hooks: spec.Hooks, Obs: spec.Obs,
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Spec: spec, Cells: cells}, nil
}

// Serve runs the sweep's job through serve — a fabric campaign's Serve —
// and decodes the payloads it returns in cell order: the same cells, bit
// for bit, that Sweep computes locally.
func (s SweepSpec) Serve(ctx context.Context, serve func(context.Context, runner.JobSpec) ([][]byte, error)) (*SweepResult, error) {
	payloads, err := serve(ctx, s.JobSpec())
	if err != nil {
		return nil, err
	}
	cells := make([]SweepCell, len(payloads))
	for i, p := range payloads {
		if cells[i], err = runner.DecodeCellValue(p); err != nil {
			return nil, err
		}
	}
	return &SweepResult{Spec: s, Cells: cells}, nil
}

// Table renders the sweep with one row per cell: the swept values followed
// by the per-file aggregates.
func (r *SweepResult) Table() *table.Table {
	dims := r.Spec.Grid.Dims()
	names := make([]string, len(dims))
	for i, d := range dims {
		names[i] = d.Name
	}
	cols := append(append([]string{}, names...), "avg online/file", "avg download/file")
	title := fmt.Sprintf("Sweep of %s for %s (K=%d, p=%g, ρ=%g, μ=%g, η=%g, γ=%g",
		strings.Join(names, ","), r.Spec.Scheme, r.Spec.Config.K, r.Spec.P, r.Spec.Rho,
		r.Spec.Config.Mu, r.Spec.Config.Eta, r.Spec.Config.Gamma)
	if r.Spec.Theta != 0 {
		title += fmt.Sprintf(", θ=%g", r.Spec.Theta)
	}
	title += ")"
	tb := table.New(title, cols...)
	for _, c := range r.Cells {
		cells := make([]string, 0, len(cols))
		for _, v := range c.Values {
			cells = append(cells, table.Fmt(v))
		}
		cells = append(cells, table.Fmt(c.AvgOnline), table.Fmt(c.AvgDownload))
		tb.MustAddRow(cells...)
	}
	return tb
}
