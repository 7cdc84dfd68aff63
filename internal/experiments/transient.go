package experiments

import (
	"context"
	"fmt"
	"math"

	"mfdl/internal/cmfsd"
	"mfdl/internal/eventsim"
	"mfdl/internal/numeric/ode"
	"mfdl/internal/replica"
	"mfdl/internal/rng"
	"mfdl/internal/runner"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/table"
	"mfdl/internal/trace"
)

// Transient metric keys (local to this experiment).
const (
	transientRMSDownloaders = "rms_downloaders"
	transientRMSSeeds       = "rms_seeds"
	transientPeakSimT       = "peak_sim_t"
)

// TransientResult compares the fluid Eq. (5) trajectory against the
// flow-level simulation after a flash crowd: FlashCrowd users appear
// at t = 0 in an empty torrent (plus the normal Poisson arrivals), and the
// downloader/seed populations are tracked to steady state. This probes the
// regime fluid models are usually trusted least in — the transient — which
// the paper never examines (experiment E13 in DESIGN.md).
type TransientResult struct {
	Settings   SimSettings
	P, Rho     float64
	FlashCrowd int
	// Fluid and Sim hold "downloaders" and "seeds" series; Sim is the
	// path of the first replica (the one seeded with Settings.Seed).
	Fluid, Sim *trace.Recorder
	// RMSDownloaders and RMSSeeds are root-mean-square gaps between the
	// fluid and simulated population paths, normalized by the flash size
	// and averaged across replicas; the CI95 fields carry their 95%
	// confidence half-widths (0 when Replicas <= 1).
	RMSDownloaders, RMSSeeds         float64
	RMSDownloadersCI95, RMSSeedsCI95 float64
	// PeakFluidT / PeakSimT are when the downloader populations peak
	// (PeakSimT averaged across replicas).
	PeakFluidT, PeakSimT float64
}

// Transient runs the flash-crowd comparison for CMFSD with the given
// correlation and allocation ratio. Settings.Replicas independent
// simulation paths (grown under CITarget like every simulated row) are
// compared against the one deterministic fluid trajectory; their RMS gaps
// are reported as mean ± 95% CI.
func Transient(ctx context.Context, set SimSettings, p, rho float64, flash int) (*TransientResult, error) {
	cfg := Config{Params: set.Params, K: set.K, Lambda0: set.Lambda0}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corr, err := cfg.corr(p)
	if err != nil {
		return nil, err
	}
	model, err := cmfsd.New(set.Params, corr, rho)
	if err != nil {
		return nil, err
	}

	// Fluid path: flash crowd enters as class-i first-file downloaders in
	// proportion to the class arrival rates; everything else starts empty.
	state := make([]float64, model.Dim())
	total := corr.TotalUserRate()
	for i := 1; i <= set.K; i++ {
		state[model.XIndex(i, 1)] = float64(flash) * corr.UserRate(i) / total
	}
	sampleEvery := set.Horizon / 200
	samples, err := ode.Trajectory(ode.NewRK4(model.Dim()), model.RHS,
		0, set.Horizon, state, math.Min(0.5, sampleEvery), 1)
	if err != nil {
		return nil, err
	}
	fluidRec := trace.NewRecorder()
	lastT := -math.Inf(1)
	for _, s := range samples {
		if s.T-lastT < sampleEvery && s.T != samples[len(samples)-1].T {
			continue
		}
		lastT = s.T
		dl, seeds := 0.0, 0.0
		for i := 1; i <= set.K; i++ {
			for j := 1; j <= i; j++ {
				dl += s.X[model.XIndex(i, j)]
			}
			seeds += s.X[model.YIndex(i)]
		}
		if err := fluidRec.Record("downloaders", s.T, dl); err != nil {
			return nil, err
		}
		if err := fluidRec.Record("seeds", s.T, seeds); err != nil {
			return nil, err
		}
	}

	// Simulated paths: independently seeded replicas, each compared
	// against the (fully built, read-only) fluid trajectory, under the
	// settings' stopping rule led by the downloader distance. The path is
	// one sim-replica cell, and RunRounds grows it like any other, but its
	// rounds are served here rather than by the job kind: a replica's
	// output is a trace compared in-process with the fluid path, and no
	// job payload carries a trace. Replica 0's trace leaves the round out
	// of band for the table.
	spec, err := sim.NewJobSpec([]sim.JobCell{{Scheme: scheme.SimCMFSD, Config: sim.Config{Flow: &eventsim.Config{
		Params: set.Params, K: set.K, Lambda0: set.Lambda0, P: p, Rho: rho,
		Horizon: set.Horizon, FlashCrowd: flash, SampleEvery: sampleEvery,
	}}}}, set.Seed, set.Replicas)
	if err != nil {
		return nil, err
	}
	scale := float64(flash)
	if scale < 1 {
		scale = 1
	}
	var first *trace.Recorder
	aggs, err := sim.RunRounds(ctx, spec, set.stopping(transientRMSDownloaders), set.Obs, func(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
		params, err := sim.Params(round)
		if err != nil {
			return nil, err
		}
		reps, err := sim.Reps(round)
		if err != nil {
			return nil, err
		}
		grid, err := runner.Indexed("replica", len(reps))
		if err != nil {
			return nil, err
		}
		return runner.Run(ctx, grid, func(_ context.Context, pt runner.Point, _ *rng.Source) ([]byte, error) {
			rep := reps[pt.Index]
			sc := *params.Cells[rep.Cell].Config.Flow
			sc.Seed = rep.Seed
			out, err := eventsim.Run(sc)
			if err != nil {
				return nil, err
			}
			if rep.Replica == 0 {
				first = out.Trace
			}
			dDl, err := trace.RMSDistance(fluidRec.Series("downloaders"), out.Trace.Series("downloaders"), 200)
			if err != nil {
				return nil, err
			}
			dSeeds, err := trace.RMSDistance(fluidRec.Series("seeds"), out.Trace.Series("seeds"), 200)
			if err != nil {
				return nil, err
			}
			peakT, _ := out.Trace.Series("downloaders").Max()
			return replica.EncodeSample(replica.Sample{Values: map[string]float64{
				transientRMSDownloaders: dDl / scale,
				transientRMSSeeds:       dSeeds / scale,
				transientPeakSimT:       peakT,
			}})
		}, runner.Options{Workers: set.Workers, Seed: set.Seed, Obs: set.Obs})
	})
	if err != nil {
		return nil, err
	}
	agg := aggs[0]

	res := &TransientResult{
		Settings: set, P: p, Rho: rho, FlashCrowd: flash,
		Fluid: fluidRec, Sim: first,
		RMSDownloaders:     agg.Mean(transientRMSDownloaders),
		RMSDownloadersCI95: agg.CI95(transientRMSDownloaders),
		RMSSeeds:           agg.Mean(transientRMSSeeds),
		RMSSeedsCI95:       agg.CI95(transientRMSSeeds),
		PeakSimT:           agg.Mean(transientPeakSimT),
	}
	res.PeakFluidT, _ = fluidRec.Series("downloaders").Max()
	return res, nil
}

// Table renders the two paths at a dozen checkpoints. The simulated
// columns show the first replica's path; the RMS row aggregates all
// replicas, with a ±95% row added when there is more than one.
func (r *TransientResult) Table() *table.Table {
	tb := table.New(
		fmt.Sprintf("Flash crowd transient (CMFSD, %d peers at t=0, p=%.1f, ρ=%.1f)",
			r.FlashCrowd, r.P, r.Rho),
		"t", "fluid downloaders", "sim downloaders", "fluid seeds", "sim seeds")
	fd := r.Fluid.Series("downloaders")
	fs := r.Fluid.Series("seeds")
	sd := r.Sim.Series("downloaders")
	ss := r.Sim.Series("seeds")
	horizon := r.Settings.Horizon
	for i := 0; i <= 12; i++ {
		t := horizon * float64(i) / 12
		tb.MustAddRow(fmt.Sprintf("%.0f", t),
			table.Fmt(fd.At(t)), table.Fmt(sd.At(t)),
			table.Fmt(fs.At(t)), table.Fmt(ss.At(t)))
	}
	tb.MustAddRow("RMS/flash", fmt.Sprintf("%.3f", r.RMSDownloaders), "",
		fmt.Sprintf("%.3f", r.RMSSeeds), "")
	if r.Settings.replicated() {
		tb.MustAddRow("±95%", fmt.Sprintf("%.3f", r.RMSDownloadersCI95), "",
			fmt.Sprintf("%.3f", r.RMSSeedsCI95), "")
	}
	return tb
}
