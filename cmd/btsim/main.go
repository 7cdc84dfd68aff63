// Command btsim runs the two BitTorrent simulators that back the paper
// reproduction: the flow-level event-driven simulator (validating the fluid
// models, experiment E9) and the chunk-level swarm simulator (validating
// the multi-file torrent schemes at the mechanism level), plus the Adapt
// mechanism evaluation the paper leaves as future work (E8).
//
// Usage:
//
//	btsim [flags] validate   fluid-vs-simulation comparison for all schemes
//	btsim [flags] adapt      Adapt controller under growing cheater fractions
//	btsim [flags] swarm      chunk-level MFCD vs CMFSD comparison
//	btsim [flags] transient  flash-crowd trajectory, fluid vs simulation
//	btsim [flags] hetero     heterogeneous bandwidth classes vs multi-class fluid
//	btsim [flags] adaptparams  probe φ/υ/period settings (paper's future work)
//	btsim [flags] run        one flow-level run of -scheme with full stats
//
// Every simulator-backed table runs -replicas independently seeded
// replicas per row as a sim-replica job (internal/sim) and, with
// -replicas > 1, reports each simulated metric as mean ± 95% CI. The
// default of one replica reproduces the unreplicated tables exactly, and
// for fixed (-seed, -replicas) the output is byte-identical at any
// -workers count.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"mfdl/internal/adapt"
	"mfdl/internal/eventsim"
	"mfdl/internal/experiments"
	"mfdl/internal/fluid"
	"mfdl/internal/gridflag"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/swarm"
	"mfdl/internal/table"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "btsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("btsim", flag.ContinueOnError)
	var (
		k        = fs.Int("k", 10, "number of files K")
		mu       = fs.Float64("mu", 0.2, "upload bandwidth μ (time-rescaled default)")
		eta      = fs.Float64("eta", 0.5, "sharing efficiency η")
		gamma    = fs.Float64("gamma", 0.5, "seed departure rate γ (time-rescaled default)")
		lambda0  = fs.Float64("lambda0", 1, "visiting rate λ₀")
		p        = fs.Float64("p", 0.9, "file correlation p")
		rho      = fs.Float64("rho", 0, "CMFSD allocation ratio ρ")
		schemeFl = fs.String("scheme", "CMFSD", "scheme for 'run': MTCD, MTSD, MFCD, CMFSD")
		horizon  = fs.Float64("horizon", 4000, "simulated time (rounds for 'swarm')")
		warmup   = fs.Float64("warmup", 800, "warmup time excluded from statistics")
		seed     = fs.Uint64("seed", 1, "RNG seed (base of the replica seed derivation)")
		replicas = fs.Int("replicas", 1, "independently seeded simulation replicas per table row (>= 1)")
		workers  = fs.Int("workers", 0, "replica worker pool size (0 = all cores)")
	)
	var (
		ofl  obs.Flags
		ofmt gridflag.Format
	)
	ofl.Register(fs)
	ofmt.Register(fs)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: btsim [flags] validate|adapt|swarm|transient|hetero|adaptparams|run")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected exactly one subcommand")
	}
	// Strict flag validation: every float must be finite, the replica
	// count positive, the worker count non-negative and the format known —
	// the same rejection style cmd/sweep uses.
	if err := gridflag.Finite(fs, "mu", "eta", "gamma", "lambda0", "p", "rho", "horizon", "warmup"); err != nil {
		return err
	}
	if *replicas < 1 {
		return fmt.Errorf("-replicas must be >= 1, got %d", *replicas)
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if err := ofmt.Validate(); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The registry is nil unless -metrics-out/-trace-out/-pprof asked for
	// one; every simulator and pool below is then on the nil fast path and
	// the tables are byte-identical either way.
	ob, finishObs, err := ofl.Setup(false)
	if err != nil {
		return err
	}
	params := fluid.Params{Mu: *mu, Eta: *eta, Gamma: *gamma}
	set := experiments.SimSettings{
		Params: params, K: *k, Lambda0: *lambda0,
		Horizon: *horizon, Warmup: *warmup,
		Options: experiments.Options{
			Seed: *seed, Replicas: *replicas, Workers: *workers, Obs: ob,
		},
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
	// The subcommands run inside a closure so the metrics snapshot and
	// trace stream are flushed on every return path.
	runErr := func() error {
		switch fs.Arg(0) {
		case "validate":
			return show(experiments.SimValidate(ctx, set, []float64{*p}))
		case "adapt":
			ac := adapt.DefaultConfig
			// Scale the thresholds with μ (they are bandwidth differences).
			ac.Lower = -0.25 * params.Mu
			ac.Upper = 0.25 * params.Mu
			ac.Period = 5 / params.Gamma
			return show(experiments.AdaptSweep(ctx, set, *p, ac,
				[]float64{0, 0.2, 0.4, 0.6, 0.8, 1}))
		case "swarm":
			base := swarm.DefaultConfig
			base.P = *p
			base.TFTEfficiency = *eta
			base.Horizon = int(*horizon)
			base.Warmup = int(*warmup)
			return show(experiments.SwarmCompare(ctx, base, []float64{0, 0.25, 0.5, 0.75, 1}, set.Options))
		case "adaptparams":
			res, err := experiments.AdaptParams(ctx, set, *p, 0.8,
				[]float64{0.05, 0.1, 0.25, 0.5},
				[]float64{0.1, 0.3},
				[]float64{2 / params.Gamma, 10 / params.Gamma})
			if err != nil {
				return err
			}
			if err := emit(res.Table()); err != nil {
				return err
			}
			best := res.Best()
			fmt.Printf("best setting: %s (clean ρ %.3f, cheated ρ %.3f)\n",
				res.Clean[best].Label, res.Clean[best].MeanFinalRho, res.Cheated[best].MeanFinalRho)
			return nil
		case "hetero":
			return show(experiments.Hetero(ctx, set, 2**lambda0, []experiments.HeteroClass{
				{Name: "broadband", Mu: 2 * params.Mu, Weight: 4, Fraction: 0.3},
				{Name: "cable", Mu: params.Mu, Weight: 2, Fraction: 0.4},
				{Name: "dsl", Mu: params.Mu / 2, Weight: 1, Fraction: 0.3},
			}))
		case "transient":
			tset := set
			if tset.Horizon > 300 {
				tset.Horizon = 150 // a dozen residence times at the rescaled rates
			}
			return show(experiments.Transient(ctx, tset, *p, *rho, 300))
		case "run":
			sc, err := scheme.ParseSim(*schemeFl)
			if err != nil {
				return fmt.Errorf("unknown scheme %q", *schemeFl)
			}
			spec, err := sim.NewJobSpec([]sim.JobCell{{Scheme: sc, Config: sim.Config{Flow: &eventsim.Config{
				Params: params, K: *k, Lambda0: *lambda0, P: *p,
				Rho:     *rho,
				Horizon: *horizon, Warmup: *warmup,
			}}}}, *seed, *replicas)
			if err != nil {
				return err
			}
			aggs, err := sim.RunJob(ctx, spec, runner.JobEnv{Obs: ob}, runner.Options{Workers: *workers, Obs: ob})
			if err != nil {
				return err
			}
			agg := aggs[0]
			rep := *replicas > 1
			title := fmt.Sprintf("%s flow-level run (p=%.2f, ρ=%.2f, horizon=%g)",
				sc, *p, *rho, *horizon)
			if rep {
				title = fmt.Sprintf("%s flow-level run (p=%.2f, ρ=%.2f, horizon=%g, R=%d)",
					sc, *p, *rho, *horizon, *replicas)
			}
			cols := []string{"metric", "value"}
			if rep {
				cols = []string{"metric", "value", "±95%"}
			}
			tb := table.New(title, cols...)
			addRow := func(metric, value string, ci float64) {
				if rep {
					tb.MustAddRow(metric, value, "±"+table.Fmt(ci))
				} else {
					tb.MustAddRow(metric, value)
				}
			}
			addRow("completed users", fmt.Sprintf("%d", int(agg.Count(replica.Completed))), 0)
			addRow("avg online time per file", table.Fmt(agg.Mean(replica.OnlinePerFile)), agg.CI95(replica.OnlinePerFile))
			addRow("avg download time per file", table.Fmt(agg.Mean(replica.DownloadPerFile)), agg.CI95(replica.DownloadPerFile))
			addRow("mean downloaders", table.Fmt(agg.Mean(replica.MeanDownloaders)), agg.CI95(replica.MeanDownloaders))
			addRow("mean seeds", table.Fmt(agg.Mean(replica.MeanSeeds)), agg.CI95(replica.MeanSeeds))
			if err := emit(tb); err != nil {
				return err
			}
			cls := table.New("per-class statistics (pooled over replicas)", "class", "completed", "online", "±95%", "download")
			if !rep {
				cls.Title = "per-class statistics"
			}
			for class := 1; class <= *k; class++ {
				n := int(agg.Count(replica.ClassKey(class, replica.Completed)))
				if n == 0 {
					continue
				}
				online := agg.Summary(replica.ClassKey(class, replica.OnlinePerFile))
				download := agg.Summary(replica.ClassKey(class, replica.DownloadPerFile))
				cls.MustAddRow(fmt.Sprintf("%d", class), fmt.Sprintf("%d", n),
					table.Fmt(online.Mean()), table.Fmt(online.CI95()),
					table.Fmt(download.Mean()))
			}
			return emit(cls)
		default:
			fs.Usage()
			return fmt.Errorf("unknown subcommand %q", fs.Arg(0))
		}
	}()
	if ferr := finishObs(); runErr == nil {
		runErr = ferr
	}
	return runErr
}
