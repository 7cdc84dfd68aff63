// Package gridflag holds the flag families the CLIs share, each spelled
// once in the shape of obs.Flags — Register on a flag set, then one
// validate/open step after parsing:
//
//   - the sweep grid (Grid): -dim names plus -from/-to/-steps lists of one
//     value per dimension or a single value broadcast to all, and the
//     plain comma lists (List) and finite floats (Finite) other flags take;
//   - Fluid: a fluid sweep's grid, -scheme and operating point (-k, -mu,
//     -eta, -gamma, -lambda0, -p, -rho, -theta), lowered to a SweepSpec;
//   - Format: -format;
//   - Replicas: -seed, -replicas, -ci-target, -ci-metric, -replicas-max;
//   - Store: -<name>-dir, -<name>-prune-age, -<name>-prune-size for the
//     replica-sample store and the solve cache.
//
// A family's defaults are its struct's values at Register time, so CLIs
// share a family and keep their own defaults (mfdl's -seed is 7, sweepd's
// 1).
package gridflag

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"mfdl/internal/experiments"
	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// parse splits a comma-separated list and converts every element; a blank
// string is the empty list.
func parse[T any](flagName, s string, conv func(string) (T, error)) ([]T, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := conv(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("-%s: invalid value %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// finite parses one float, rejecting NaN and ±Inf: they would silently
// produce a degenerate grid or run.
func finite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		err = fmt.Errorf("not finite")
	}
	return v, err
}

// List parses a comma-separated list of finite floats; a blank string is
// the empty list.
func List(flagName, s string) ([]float64, error) { return parse(flagName, s, finite) }

// broadcast parses a list that holds either n values or one value for all
// n.
func broadcast[T any](flagName, s string, n int, conv func(string) (T, error)) ([]T, error) {
	vals, err := parse(flagName, s, conv)
	if err != nil || len(vals) == n {
		return vals, err
	}
	if len(vals) == 1 {
		out := make([]T, n)
		for i := range out {
			out[i] = vals[0]
		}
		return out, nil
	}
	return nil, fmt.Errorf("-%s: got %d values for %d dimensions", flagName, len(vals), n)
}

// Grid assembles the full -dim/-from/-to/-steps vocabulary into a
// runner.Grid: each dimension sweeps Linspace(from, to, steps).
func Grid(dim, from, to, steps string) (runner.Grid, error) {
	names := strings.Split(dim, ",")
	for i, name := range names {
		names[i] = strings.TrimSpace(name)
	}
	froms, err := broadcast("from", from, len(names), finite)
	if err != nil {
		return runner.Grid{}, err
	}
	tos, err := broadcast("to", to, len(names), finite)
	if err != nil {
		return runner.Grid{}, err
	}
	stepsN, err := broadcast("steps", steps, len(names), strconv.Atoi)
	if err != nil {
		return runner.Grid{}, err
	}
	dims := make([]runner.Dim, len(names))
	for i, name := range names {
		if froms[i] > tos[i] {
			return runner.Grid{}, fmt.Errorf("dimension %s: -from %g > -to %g", name, froms[i], tos[i])
		}
		if stepsN[i] < 1 {
			return runner.Grid{}, fmt.Errorf("dimension %s: steps must be >= 1, got %d", name, stepsN[i])
		}
		dims[i] = runner.Dim{Name: name, Values: runner.Linspace(froms[i], tos[i], stepsN[i])}
	}
	return runner.NewGrid(dims...)
}

// Fluid is a fluid sweep's flags: the grid, the scheme and the operating
// point the swept dimensions override.
type Fluid struct {
	Dim, From, To, Steps, Scheme           string
	K                                      int
	Mu, Eta, Gamma, Lambda0, P, Rho, Theta float64
}

// Register declares the thirteen flags. prefix opens the help of the flags
// only a fluid sweep reads (sweepd serve, which also serves simulations,
// passes "fluid: "); the model flags -k, -mu, -eta, -gamma and -lambda0
// carry none.
func (f *Fluid) Register(fs *flag.FlagSet, prefix string) {
	fs.StringVar(&f.Dim, "dim", "p", prefix+"swept dimensions (comma-separated): "+strings.Join(runner.KeyDims, ", "))
	fs.StringVar(&f.From, "from", "0.05", prefix+"sweep start, one value or one per dimension")
	fs.StringVar(&f.To, "to", "1", prefix+"sweep end, one value or one per dimension")
	fs.StringVar(&f.Steps, "steps", "10", prefix+"sweep intervals, one value or one per dimension")
	fs.StringVar(&f.Scheme, "scheme", "CMFSD", prefix+"scheme: MTCD, MTSD, MFCD, CMFSD")
	fs.IntVar(&f.K, "k", 10, "number of files K")
	fs.Float64Var(&f.Mu, "mu", 0.02, "upload bandwidth μ")
	fs.Float64Var(&f.Eta, "eta", 0.5, "sharing efficiency η")
	fs.Float64Var(&f.Gamma, "gamma", 0.05, "seed departure rate γ")
	fs.Float64Var(&f.Lambda0, "lambda0", 1, "visiting rate λ₀")
	fs.Float64Var(&f.P, "p", 0.9, prefix+"file correlation p")
	fs.Float64Var(&f.Rho, "rho", 0, prefix+"CMFSD allocation ratio ρ")
	fs.Float64Var(&f.Theta, "theta", 0, prefix+"downloader abort rate θ (0 = paper's churn-free model)")
}

// Config returns the model flags as an experiment configuration.
func (f *Fluid) Config() experiments.Config {
	return experiments.Config{
		Params: fluid.Params{Mu: f.Mu, Eta: f.Eta, Gamma: f.Gamma},
		K:      f.K, Lambda0: f.Lambda0,
	}
}

// Spec lowers the flags to a SweepSpec whose job validates, so a value
// any cell's solve would refuse is an error before the first cell runs.
func (f *Fluid) Spec() (experiments.SweepSpec, error) {
	grid, err := Grid(f.Dim, f.From, f.To, f.Steps)
	if err != nil {
		return experiments.SweepSpec{}, err
	}
	sc, err := scheme.Parse(f.Scheme)
	if err != nil {
		return experiments.SweepSpec{}, err
	}
	spec := experiments.SweepSpec{Config: f.Config(), P: f.P, Rho: f.Rho, Theta: f.Theta, Scheme: sc, Grid: grid}
	if err := spec.JobSpec().Validate(); err != nil {
		return experiments.SweepSpec{}, err
	}
	return spec, nil
}

// Finite rejects a NaN or infinite value in any of the named float flags
// of fs.
func Finite(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(float64); math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("-%s: value %v is not finite", name, v)
		}
	}
	return nil
}

// Format is the -format flag: how a table is rendered.
type Format string

// Register declares -format, defaulting to ascii.
func (f *Format) Register(fs *flag.FlagSet) {
	fs.StringVar((*string)(f), "format", "ascii", "output format: ascii, csv, tsv, or markdown")
}

// Validate rejects a format table.Write does not render.
func (f Format) Validate() error {
	switch f {
	case "", "ascii", "csv", "tsv", "markdown", "md":
		return nil
	}
	return fmt.Errorf("unknown format %q (want ascii, csv, tsv, or markdown)", string(f))
}

// Replicas are the replica engine's flags.
type Replicas struct {
	Seed                  uint64
	Replicas, ReplicasMax int
	CITarget              float64
	CIMetric              string
}

// Register declares -seed, -replicas, -ci-target, -ci-metric and
// -replicas-max.
func (r *Replicas) Register(fs *flag.FlagSet) {
	fs.Uint64Var(&r.Seed, "seed", r.Seed, "base seed of the replica seed derivation for simulated rows")
	fs.IntVar(&r.Replicas, "replicas", r.Replicas, "independently seeded simulation replicas per simulated row (>= 1)")
	fs.Float64Var(&r.CITarget, "ci-target", r.CITarget, "sequential stopping: grow each simulated row's replicas until the 95% CI half-width of -ci-metric reaches this (0 = fixed -replicas)")
	fs.StringVar(&r.CIMetric, "ci-metric", r.CIMetric, "stopping metric for -ci-target (empty = the experiment's headline metric)")
	fs.IntVar(&r.ReplicasMax, "replicas-max", r.ReplicasMax, "replica growth bound per row under -ci-target")
}

// Options validates the flags and returns them as experiment options.
func (r *Replicas) Options() (experiments.Options, error) {
	switch {
	case r.Replicas < 1:
		return experiments.Options{}, fmt.Errorf("-replicas must be >= 1, got %d", r.Replicas)
	case math.IsNaN(r.CITarget) || math.IsInf(r.CITarget, 0) || r.CITarget < 0:
		return experiments.Options{}, fmt.Errorf("-ci-target must be finite and >= 0, got %v", r.CITarget)
	case r.ReplicasMax < 1:
		return experiments.Options{}, fmt.Errorf("-replicas-max must be >= 1, got %d", r.ReplicasMax)
	}
	return experiments.Options{Seed: r.Seed, Replicas: r.Replicas,
		CITarget: r.CITarget, CIMetric: r.CIMetric, ReplicasMax: r.ReplicasMax}, nil
}

// Store is a keyed disk store's flags: -<Name>-dir, -<Name>-prune-age and
// -<Name>-prune-size ("sample" for the replica-sample store, "cache" for
// the solve cache).
type Store struct {
	Name, Dir string
	PruneAge  time.Duration
	PruneSize int64
}

// Register declares the three flags; usage describes -<Name>-dir.
func (s *Store) Register(fs *flag.FlagSet, usage string) {
	fs.StringVar(&s.Dir, s.Name+"-dir", "", usage)
	fs.DurationVar(&s.PruneAge, s.Name+"-prune-age", 0, "evict entries unused for longer than this first (0 = off; requires -"+s.Name+"-dir)")
	fs.Int64Var(&s.PruneSize, s.Name+"-prune-size", 0, "evict least-recently-used entries down to this many bytes first (0 = off; requires -"+s.Name+"-dir)")
}

// Open validates the flags and, given a directory, opens the store there
// with open — pruning it first when the flags ask, with the summary on
// stderr under prog's name. Without a directory it returns the zero S.
func Open[S interface {
	Prune(diskcache.PruneOptions) (diskcache.PruneStats, error)
}](s *Store, prog string, open func(dir string) (S, error)) (S, error) {
	var zero S
	prune := s.PruneAge > 0 || s.PruneSize > 0
	switch pre := "-" + s.Name + "-prune-age and -" + s.Name + "-prune-size"; {
	case s.PruneAge < 0 || s.PruneSize < 0:
		return zero, fmt.Errorf("%s must be >= 0, got %v and %d", pre, s.PruneAge, s.PruneSize)
	case prune && s.Dir == "":
		return zero, fmt.Errorf("%s require -%s-dir", pre, s.Name)
	case s.Dir == "":
		return zero, nil
	}
	store, err := open(s.Dir)
	if err != nil || !prune {
		return store, err
	}
	pst, err := store.Prune(diskcache.PruneOptions{MaxAge: s.PruneAge, MaxBytes: s.PruneSize})
	if err != nil {
		return zero, err
	}
	fmt.Fprintf(os.Stderr, "%s: %s prune: removed %d entries (%d bytes), kept %d (%d bytes)\n",
		prog, s.Name, pst.Removed, pst.Freed, pst.Kept, pst.Remaining)
	return store, nil
}

// Samples opens the replica-sample store (see Open) reporting to reg; nil
// without -sample-dir.
func (s *Store) Samples(prog string, reg *obs.Registry) (*diskcache.SampleStore, error) {
	return Open(s, prog, func(dir string) (*diskcache.SampleStore, error) {
		store, err := diskcache.OpenSamples(dir)
		if err != nil {
			return nil, err
		}
		return store.WithObs(reg), nil
	})
}
