// Command mfdl regenerates the tables and figures of "Analyzing Multiple
// File Downloading in BitTorrent" (ICPP 2006) from the fluid models.
//
// Usage:
//
//	mfdl [flags] <subcommand>
//
// Subcommands:
//
//	params     print the Table-1 parameter glossary
//	validate   K = 1 degeneracy check against the Qiu–Srikant closed form
//	fig2       Figure 2: avg online time per file vs correlation, MTCD vs MTSD
//	fig3       Figure 3: per-class times at p = 0.1 and p = 1.0
//	fig4a      Figure 4(a): CMFSD avg online time per file over a p × ρ grid
//	fig4b      Figure 4(b): per-class times at p = 0.9, CMFSD vs MFCD
//	fig4c      Figure 4(c): per-class times at p = 0.1, CMFSD vs MFCD
//	crossover  per-class correlation where MTCD stops beating MTSD
//	stability  spectral abscissas of the fluid fixed points
//	eta        η-sensitivity ablation of the MTCD curve
//	cheating   fluid mixed-population sweep: obedient vs ρ=1 cheaters
//	kscaling   collaboration gain vs number of files K
//	simvalidate  fluid-vs-event-simulation check (-replicas, -seed; not in 'all')
//	churn      download time under deterministic chaos: downloader aborts and
//	           virtual-seed quits, fluid vs simulation (-chaos-seed,
//	           -abort-rate, -quit-rate; not in 'all')
//	report     write every table above except params, simvalidate and churn
//	           to -out as CSV files, each the table its subcommand prints
//	all        everything above in this order (except simvalidate and churn)
//
// Flags select the model parameters (defaults are the paper's) and the
// output format (ascii, csv, tsv, markdown). simvalidate and churn are the
// simulator-backed subcommands: they run -replicas independently seeded
// replicas per row on the replica engine and, with -replicas > 1, add a
// ±95% confidence column. churn additionally injects a fault plan derived
// from -chaos-seed: the same seed reproduces the same aborts and seed
// quits byte-for-byte at any -workers count.
//
// With -sample-dir every simulated replica persists in a keyed sample
// store: a later run with a larger -replicas replays the stored samples
// and simulates only the new ones. -ci-target switches to sequential
// stopping — each row's replica count grows (bounded by -replicas-max)
// until the 95% confidence half-width of -ci-metric reaches the target.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"mfdl/internal/experiments"
	"mfdl/internal/fluid"
	"mfdl/internal/gridflag"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/table"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mfdl:", err)
		os.Exit(1)
	}
}

// env is what an artifact's tables are generated from: the parsed flags,
// the shared solve cache inside cfg and the simulator settings.
type env struct {
	ctx           context.Context
	cfg           experiments.Config
	set           experiments.SimSettings
	steps         int
	chaos         uint64
	aborts, quits string
}

// artifact is one subcommand: the tables it prints, whether 'all' runs
// it, and the CSV file names 'report' writes its tables under, one per
// table (none keeps it out of 'report').
type artifact struct {
	name   string
	all    bool
	files  []string
	tables func(e *env) ([]*table.Table, error)
}

// one passes an experiment's single table on, or its error.
func one(res interface{ Table() *table.Table }, err error) ([]*table.Table, error) {
	if err != nil {
		return nil, err
	}
	return []*table.Table{res.Table()}, nil
}

// artifacts is the one ordered list of mfdl's subcommands. The usage line
// lists it, 'all' runs its all entries in this order, and 'report' writes
// the entries with files in this order.
var artifacts = []artifact{
	{"params", true, nil, func(e *env) ([]*table.Table, error) {
		tb := table.New("Table 1: parameters of the BitTorrent fluid model",
			"symbol", "meaning", "paper value")
		tb.MustAddRow("K", "number of files in the system", fmt.Sprintf("%d", e.cfg.K))
		tb.MustAddRow("λ₀", "web-server visiting rate", table.Fmt(e.cfg.Lambda0))
		tb.MustAddRow("p", "per-file request probability (file correlation)", "swept")
		tb.MustAddRow("μ", "peer upload bandwidth", table.Fmt(e.cfg.Mu))
		tb.MustAddRow("η", "downloader sharing efficiency", table.Fmt(e.cfg.Eta))
		tb.MustAddRow("γ", "seed departure rate", table.Fmt(e.cfg.Gamma))
		tb.MustAddRow("ρ", "CMFSD bandwidth allocation ratio", "swept")
		return []*table.Table{tb}, nil
	}},
	{"validate", true, []string{"validate"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.Validate(e.cfg))
	}},
	{"fig2", true, []string{"fig2"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.Fig2(e.ctx, e.cfg, runner.Linspace(0, 1, e.steps)))
	}},
	{"fig3", true, []string{"fig3_p01", "fig3_p10"}, func(e *env) ([]*table.Table, error) {
		var tbs []*table.Table
		for _, p := range []float64{0.1, 1.0} {
			r, err := experiments.Fig3(e.cfg, p)
			if err != nil {
				return nil, err
			}
			tbs = append(tbs, r.Table())
		}
		return tbs, nil
	}},
	{"fig4a", true, []string{"fig4a"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.Fig4A(e.ctx, e.cfg,
			runner.Linspace(0.1, 1, e.steps/2), runner.Linspace(0, 1, 10)))
	}},
	{"fig4b", true, []string{"fig4b"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.Fig4BC(e.cfg, 0.9, 0.1, 0.9))
	}},
	{"fig4c", true, []string{"fig4c"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.Fig4BC(e.cfg, 0.1, 0.1, 0.9))
	}},
	{"crossover", true, []string{"crossover"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.Crossover(e.cfg))
	}},
	{"stability", true, []string{"stability"}, func(e *env) ([]*table.Table, error) {
		_, tb, err := experiments.StabilityTable(e.cfg)
		return []*table.Table{tb}, err
	}},
	{"eta", true, []string{"eta_ablation"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.EtaAblation(e.ctx, e.cfg,
			[]float64{0.25, 0.5, 0.75, 1.0}, runner.Linspace(0, 1, e.steps)))
	}},
	{"cheating", true, []string{"cheating"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.CheatingSweep(e.cfg, 0.9, 0,
			[]float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}))
	}},
	{"kscaling", true, []string{"kscaling"}, func(e *env) ([]*table.Table, error) {
		return one(experiments.KScaling(e.ctx, e.cfg, 0.9, []int{1, 2, 3, 5, 8, 10, 12, 15, 20}))
	}},
	{"simvalidate", false, nil, func(e *env) ([]*table.Table, error) {
		return one(experiments.SimValidate(e.ctx, e.set, []float64{0.5, 0.9}))
	}},
	{"churn", false, nil, func(e *env) ([]*table.Table, error) {
		// An empty list skips its axis; ChurnSweep rejects a negative
		// rate before simulating anything.
		thetas, err := gridflag.List("abort-rate", e.aborts)
		if err != nil {
			return nil, err
		}
		quits, err := gridflag.List("quit-rate", e.quits)
		if err != nil {
			return nil, err
		}
		if len(thetas) == 0 && len(quits) == 0 {
			return nil, fmt.Errorf("churn: both -abort-rate and -quit-rate are empty, nothing to sweep")
		}
		res, err := experiments.ChurnSweep(e.ctx, e.set, 0.9, e.chaos, thetas, quits)
		if err != nil {
			return nil, err
		}
		return res.Tables(), nil
	}},
}

// writeReport generates the tables of every artifact with files in list
// order (each grid is parallel inside, and all share e.cfg's solve cache)
// and writes them as CSV into dir, printing each path, so the listing and
// the directory contents are deterministic.
func writeReport(e *env, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range artifacts {
		if len(a.files) == 0 {
			continue
		}
		tbs, err := a.tables(e)
		if err != nil {
			return fmt.Errorf("report %s: %w", a.name, err)
		}
		for j, name := range a.files {
			var csv bytes.Buffer
			if err := tbs[j].WriteCSV(&csv); err != nil {
				return err
			}
			path := filepath.Join(dir, name+".csv")
			if err := os.WriteFile(path, csv.Bytes(), 0o666); err != nil {
				return err
			}
			fmt.Println(path)
		}
	}
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("mfdl", flag.ContinueOnError)
	var (
		k        = fs.Int("k", 10, "number of files K")
		mu       = fs.Float64("mu", 0.02, "upload bandwidth μ")
		eta      = fs.Float64("eta", 0.5, "sharing efficiency η")
		gamma    = fs.Float64("gamma", 0.05, "seed departure rate γ")
		lambda0  = fs.Float64("lambda0", 1, "web-server visiting rate λ₀")
		steps    = fs.Int("steps", 20, "grid resolution for swept axes")
		workers  = fs.Int("workers", 0, "replica worker pool size for the simulator subcommands (0 = all cores)")
		chaos    = fs.Uint64("chaos-seed", 42, "fault-plan seed for 'churn' (same seed ⇒ identical chaos)")
		abortsFl = fs.String("abort-rate", "0,0.0005,0.001,0.002", "comma-separated downloader abort rates θ for 'churn' (empty skips the axis)")
		quitsFl  = fs.String("quit-rate", "0.02,0.05,0.1", "comma-separated virtual-seed quit rates for 'churn' (empty skips the axis)")
		out      = fs.String("out", "artifacts", "output directory for the 'report' subcommand")
		cacheDir = fs.String("cache-dir", "", "persistent solve-cache directory shared across runs (empty = in-memory only)")
		stats    = fs.Bool("stats", false, "print per-phase wall-clock and solve-cache hit rates on stderr")
	)
	var (
		ofl  obs.Flags
		ofmt gridflag.Format
		rf   = gridflag.Replicas{Seed: 7, Replicas: 1, ReplicasMax: 64}
		sf   = gridflag.Store{Name: "sample"}
	)
	ofl.Register(fs)
	ofmt.Register(fs)
	rf.Register(fs)
	sf.Register(fs, "keyed replica-sample store for the simulator subcommands: re-runs with more replicas replay stored samples instead of resampling (empty = off)")
	fs.Usage = func() {
		names := make([]string, len(artifacts))
		for i, a := range artifacts {
			names[i] = a.name
		}
		fmt.Fprintf(fs.Output(), "usage: mfdl [flags] %s|report|all\n", strings.Join(names, "|"))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one subcommand, got %d", fs.NArg())
	}
	// Strict flag validation, in cmd/sweep's rejection style: model floats
	// must be finite, the grid resolution and the replica count positive,
	// the worker count non-negative and the format known.
	if err := gridflag.Finite(fs, "mu", "eta", "gamma", "lambda0"); err != nil {
		return err
	}
	if *steps < 1 {
		return fmt.Errorf("-steps must be >= 1, got %d", *steps)
	}
	simOpts, err := rf.Options()
	if err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if err := ofmt.Validate(); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// A registry exists only when something will consume it: -stats
	// renders from it, -metrics-out/-trace-out/-pprof export it.
	// Otherwise it stays nil and instrumentation is on the zero-cost fast
	// path; the tables on stdout are byte-identical either way.
	reg, finishObs, err := ofl.Setup(*stats)
	if err != nil {
		return err
	}
	// One solve cache for the whole invocation: 'all' and 'report' reuse
	// solves across figures, the simulator subcommands' fluid predictions
	// go through it too, and -cache-dir extends the reuse across processes.
	cache := runner.NewCache()
	if *cacheDir != "" {
		disk, err := diskcache.Open(*cacheDir)
		if err != nil {
			return err
		}
		cache = runner.NewDiskCache(disk)
	}
	cache.WithObs(reg)
	// One sample store for the simulator subcommands: a later run with a
	// larger -replicas (or a tighter -ci-target) replays every sample this
	// run stored instead of resampling it.
	if simOpts.Samples, err = sf.Samples("mfdl", reg); err != nil {
		return err
	}
	simOpts.Workers, simOpts.Obs, simOpts.Cache = *workers, reg, cache
	cfg := experiments.Config{
		Params:  fluid.Params{Mu: *mu, Eta: *eta, Gamma: *gamma},
		K:       *k,
		Lambda0: *lambda0,
		Options: experiments.Options{Cache: cache},
	}
	// The simulator subcommands run the model at the validation horizon.
	set := experiments.SimSettings{
		Params: cfg.Params, K: cfg.K, Lambda0: cfg.Lambda0,
		Horizon: 4000, Warmup: 800, Options: simOpts,
	}
	// cacheSummary renders the -stats cache summary from the registry's
	// solvecache_* / diskcache_* counters (mirrored by the cache tiers via
	// WithObs).
	cacheSummary := func() {
		if !*stats {
			return
		}
		count := func(name string) uint64 { return reg.Counter(name).Value() }
		fmt.Fprintf(os.Stderr, "mfdl: solve cache: memory %d hits / %d misses",
			count("solvecache_hits_total"), count("solvecache_misses_total"))
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr, "; disk %d hits / %d misses (%d stored, %d corrupt, %d evicted)",
				count("diskcache_hits_total"), count("diskcache_misses_total"),
				count("diskcache_stores_total"), count("diskcache_corrupt_total"),
				count("diskcache_evicted_total"))
		}
		fmt.Fprintf(os.Stderr, "; %d solved\n", count("solvecache_solves_total"))
	}
	e := &env{
		ctx: ctx, cfg: cfg, set: set, steps: *steps,
		chaos: *chaos, aborts: *abortsFl, quits: *quitsFl,
	}
	// runPhase times one subcommand into the registry's per-phase gauge;
	// with -stats each phase's wall-clock also lands on stderr, rendered
	// from that gauge.
	runPhase := func(sub string, f func() error) error {
		var start time.Time
		var sp obs.Span
		if reg != nil {
			start = time.Now()
			sp = reg.StartSpan("phase", obs.L("phase", sub))
		}
		err := f()
		if reg != nil {
			reg.Gauge("mfdl_phase_seconds", obs.L("phase", sub)).Set(time.Since(start).Seconds())
			sp.End()
		}
		if *stats {
			ms := reg.Gauge("mfdl_phase_seconds", obs.L("phase", sub)).Value() * 1000
			fmt.Fprintf(os.Stderr, "mfdl: phase %-9s %8.1fms\n", sub, ms)
		}
		return err
	}
	// show prints an artifact's tables to stdout, each followed by a blank
	// line.
	show := func(a artifact) func() error {
		return func() error {
			tbs, err := a.tables(e)
			if err != nil {
				return err
			}
			for _, tb := range tbs {
				if err := tb.Write(os.Stdout, string(ofmt)); err != nil {
					return err
				}
				fmt.Println()
			}
			return nil
		}
	}
	// The subcommands run inside a closure so the metrics snapshot and
	// trace stream are flushed on every return path.
	runErr := func() error {
		switch name := fs.Arg(0); name {
		case "all":
			for _, a := range artifacts {
				if !a.all {
					continue
				}
				if err := runPhase(a.name, show(a)); err != nil {
					return fmt.Errorf("%s: %w", a.name, err)
				}
			}
		case "report":
			if err := runPhase(name, func() error { return writeReport(e, *out) }); err != nil {
				return err
			}
		default:
			i := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == name })
			if i < 0 {
				fs.Usage()
				return fmt.Errorf("unknown subcommand %q", name)
			}
			if err := runPhase(name, show(artifacts[i])); err != nil {
				return err
			}
		}
		cacheSummary()
		return nil
	}()
	if ferr := finishObs(); runErr == nil {
		runErr = ferr
	}
	return runErr
}
