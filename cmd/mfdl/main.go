// Command mfdl regenerates the tables and figures of "Analyzing Multiple
// File Downloading in BitTorrent" (ICPP 2006) from the fluid models.
//
// Usage:
//
//	mfdl [flags] <subcommand>
//
// Subcommands:
//
//	fig2       Figure 2: avg online time per file vs correlation, MTCD vs MTSD
//	fig3       Figure 3: per-class times at p = 0.1 and p = 1.0
//	fig4a      Figure 4(a): CMFSD avg online time per file over a p × ρ grid
//	fig4b      Figure 4(b): per-class times at p = 0.9, CMFSD vs MFCD
//	fig4c      Figure 4(c): per-class times at p = 0.1, CMFSD vs MFCD
//	validate   K = 1 degeneracy check against the Qiu–Srikant closed form
//	stability  spectral abscissas of the fluid fixed points
//	crossover  per-class correlation where MTCD stops beating MTSD
//	eta        η-sensitivity ablation of the MTCD curve
//	cheating   fluid mixed-population sweep: obedient vs ρ=1 cheaters
//	kscaling   collaboration gain vs number of files K
//	simvalidate  fluid-vs-event-simulation check (-replicas, -seed; not in 'all')
//	churn      download time under deterministic chaos: downloader aborts and
//	           virtual-seed quits, fluid vs simulation (-chaos-seed,
//	           -abort-rate, -quit-rate; not in 'all')
//	report     write every artifact above to -out as CSV files
//	params     print the Table-1 parameter glossary
//	all        everything above in paper order (except simvalidate and churn)
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
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
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
		fmt.Fprintln(fs.Output(), "usage: mfdl [flags] fig2|fig3|fig4a|fig4b|fig4c|validate|stability|crossover|eta|cheating|kscaling|simvalidate|churn|report|params|all")
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
	// must be finite, the replica count positive, the worker count
	// non-negative and the format known.
	if err := gridflag.Finite(fs, "mu", "eta", "gamma", "lambda0"); err != nil {
		return err
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
	// solves across figures, and -cache-dir extends the reuse across
	// processes.
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
	simOpts.Workers, simOpts.Obs = *workers, reg
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
	emit := func(tb *table.Table) error {
		if err := tb.Write(os.Stdout, string(ofmt)); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}
	// show emits an experiment's table, or passes its error on.
	show := func(res interface{ Table() *table.Table }, err error) error {
		if err != nil {
			return err
		}
		return emit(res.Table())
	}
	cmds := map[string]func() error{
		"fig2": func() error {
			return show(experiments.Fig2(cfg, experiments.PGrid(0, 1, *steps)))
		},
		"fig3": func() error {
			for _, p := range []float64{0.1, 1.0} {
				if err := show(experiments.Fig3(cfg, p)); err != nil {
					return err
				}
			}
			return nil
		},
		"fig4a": func() error {
			return show(experiments.Fig4A(ctx, cfg,
				experiments.PGrid(0.1, 1, *steps/2), experiments.PGrid(0, 1, 10)))
		},
		"fig4b": func() error {
			return show(experiments.Fig4BC(cfg, 0.9, 0.1, 0.9))
		},
		"fig4c": func() error {
			return show(experiments.Fig4BC(cfg, 0.1, 0.1, 0.9))
		},
		"validate": func() error {
			return show(experiments.Validate(cfg))
		},
		"stability": func() error {
			_, tb, err := experiments.StabilityTable(cfg)
			if err != nil {
				return err
			}
			return emit(tb)
		},
		"crossover": func() error {
			return show(experiments.Crossover(cfg))
		},
		"eta": func() error {
			return show(experiments.EtaAblation(ctx, cfg,
				[]float64{0.25, 0.5, 0.75, 1.0}, experiments.PGrid(0, 1, *steps)))
		},
		"kscaling": func() error {
			return show(experiments.KScaling(cfg, 0.9, []int{1, 2, 3, 5, 8, 10, 12, 15, 20}))
		},
		"cheating": func() error {
			return show(experiments.CheatingSweep(cfg, 0.9, 0,
				[]float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}))
		},
		"simvalidate": func() error {
			return show(experiments.SimValidate(ctx, set, []float64{0.5, 0.9}))
		},
		"churn": func() error {
			// An empty list skips its axis; ChurnSweep rejects a negative
			// rate before simulating anything.
			thetas, err := gridflag.List("abort-rate", *abortsFl)
			if err != nil {
				return err
			}
			quits, err := gridflag.List("quit-rate", *quitsFl)
			if err != nil {
				return err
			}
			if len(thetas) == 0 && len(quits) == 0 {
				return fmt.Errorf("churn: both -abort-rate and -quit-rate are empty, nothing to sweep")
			}
			res, err := experiments.ChurnSweep(ctx, set, 0.9, *chaos, thetas, quits)
			if err != nil {
				return err
			}
			for _, tb := range res.Tables() {
				if err := emit(tb); err != nil {
					return err
				}
			}
			return nil
		},
		"report": func() error {
			files, err := experiments.Report(ctx, cfg, *out)
			if err != nil {
				return err
			}
			for _, f := range files {
				fmt.Println(f)
			}
			return nil
		},
		"params": func() error {
			tb := table.New("Table 1: parameters of the BitTorrent fluid model",
				"symbol", "meaning", "paper value")
			tb.MustAddRow("K", "number of files in the system", fmt.Sprintf("%d", cfg.K))
			tb.MustAddRow("λ₀", "web-server visiting rate", table.Fmt(cfg.Lambda0))
			tb.MustAddRow("p", "per-file request probability (file correlation)", "swept")
			tb.MustAddRow("μ", "peer upload bandwidth", table.Fmt(cfg.Mu))
			tb.MustAddRow("η", "downloader sharing efficiency", table.Fmt(cfg.Eta))
			tb.MustAddRow("γ", "seed departure rate", table.Fmt(cfg.Gamma))
			tb.MustAddRow("ρ", "CMFSD bandwidth allocation ratio", "swept")
			return emit(tb)
		},
	}
	// runPhase times one subcommand into the registry's per-phase gauge;
	// with -stats each phase's wall-clock also lands on stderr, rendered
	// from that gauge.
	runPhase := func(sub string) error {
		var start time.Time
		var sp obs.Span
		if reg != nil {
			start = time.Now()
			sp = reg.StartSpan("phase", obs.L("phase", sub))
		}
		err := cmds[sub]()
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
	// report renders the cache summary from the registry's solvecache_* /
	// diskcache_* counters (mirrored by the cache tiers via WithObs).
	report := func() {
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
	// The subcommands run inside a closure so the metrics snapshot and
	// trace stream are flushed on every return path.
	runErr := func() error {
		name := fs.Arg(0)
		if name == "all" {
			for _, sub := range []string{"params", "validate", "fig2", "fig3", "fig4a", "fig4b", "fig4c", "crossover", "stability", "eta", "cheating", "kscaling"} {
				if err := runPhase(sub); err != nil {
					return fmt.Errorf("%s: %w", sub, err)
				}
			}
			report()
			return nil
		}
		if _, ok := cmds[name]; !ok {
			fs.Usage()
			return fmt.Errorf("unknown subcommand %q", name)
		}
		if err := runPhase(name); err != nil {
			return err
		}
		report()
		return nil
	}()
	if ferr := finishObs(); runErr == nil {
		runErr = ferr
	}
	return runErr
}
