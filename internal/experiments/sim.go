package experiments

import (
	"context"
	"fmt"
	"math"

	"mfdl/internal/adapt"
	"mfdl/internal/eventsim"
	"mfdl/internal/fluid"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/stats"
	"mfdl/internal/swarm"
	"mfdl/internal/table"
)

// SimSettings controls the simulator-based experiments. The default uses a
// time-rescaled parameter set (μ and γ ×10 relative to the paper) so swarm
// populations stay small; all fluid predictions rescale exactly.
type SimSettings struct {
	Params  fluid.Params
	K       int
	Lambda0 float64
	Horizon float64
	Warmup  float64
	// Options is the shared execution-option surface: Seed anchors the
	// replica seed derivation, Replicas is the number of independently
	// seeded simulation replicas behind every table row (0 or 1 runs a
	// single replica, reproducing the unreplicated tables byte-for-byte;
	// R > 1 reports every simulated metric as mean ± 95% CI), Workers
	// bounds the fan-out pool (0 = all cores; output is byte-identical at
	// any count), and Obs instruments the replica engine and the runner
	// pool beneath it (byte-identical with or without).
	Options
}

// DefaultSimSettings is the fast validation operating point.
var DefaultSimSettings = SimSettings{
	Params:  fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5},
	K:       10,
	Lambda0: 1,
	Horizon: 4000,
	Warmup:  800,
	Options: Options{Seed: 1},
}

// fluidKey is the solve key of sc's fluid model at the settings'
// operating point; a NaN ρ (a scheme without one) solves at 0.
func (s SimSettings) fluidKey(sc scheme.Scheme, p, rho, theta float64) runner.Key {
	if math.IsNaN(rho) {
		rho = 0
	}
	return runner.Key{Scheme: sc, Params: s.Params, K: s.K, P: p, Lambda0: s.Lambda0, Rho: rho, Theta: theta}
}

// replicated reports whether every simulated table row runs at least two
// replicas, and so has error bars: a fixed count above one, or sequential
// stopping, whose rows start at two.
func (o Options) replicated() bool { return o.Replicas > 1 || o.CITarget > 0 }

// stopping assembles the sequential-stopping rule for these settings;
// metric is the experiment's headline metric, overridden by CIMetric.
func (s SimSettings) stopping(metric string) sim.Stopping {
	if s.CIMetric != "" {
		metric = s.CIMetric
	}
	return sim.Stopping{Metric: metric, Target: s.CITarget, MaxReplicas: s.ReplicasMax}
}

// serve executes one round of a sim-replica job locally through the job
// layer — the cells a fabric coordinator would lease — so an attached
// sample store (Options.Samples) is shared between local and distributed
// runs: a re-run with more replicas replays every stored sample.
func (s SimSettings) serve(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
	return runner.RunJobPayloads(ctx, round, runner.JobEnv{Samples: s.Samples, Obs: s.Obs},
		runner.Options{Workers: s.Workers, Obs: s.Obs})
}

// runCells lowers cells into a sim-replica job at these settings' seed and
// replica count and runs it through sim.RunRounds, every round served
// locally. With CITarget set the replica counts grow per cell under the
// sequential-stopping rule, led by metric unless CIMetric names another;
// otherwise the spec's fixed count runs in one round.
func (s SimSettings) runCells(ctx context.Context, cells []sim.JobCell, metric string) ([]replica.Agg, error) {
	spec, err := sim.NewJobSpec(cells, s.Seed, s.Replicas)
	if err != nil {
		return nil, err
	}
	return sim.RunRounds(ctx, spec, s.stopping(metric), s.Obs, s.serve)
}

// adaptCell is one CMFSD flow-level cell with the Adapt controller on every
// obedient peer and the given fraction of cheaters.
func adaptCell(set SimSettings, p float64, ac adapt.Config, cheaterFraction float64) sim.JobCell {
	return sim.JobCell{Scheme: scheme.SimCMFSD, Config: sim.Config{Flow: &eventsim.Config{
		Params: set.Params, K: set.K, Lambda0: set.Lambda0, P: p,
		Adapt: &ac, CheaterFraction: cheaterFraction,
		Horizon: set.Horizon, Warmup: set.Warmup,
	}}}
}

// ciCell formats a ± cell with table.Fmt precision.
func ciCell(ci float64) string { return "±" + table.Fmt(ci) }

// ciTable is a table whose "±95%" columns exist only when its rows carry
// error bars: rows pass a cell for every column, and the ± cells are
// dropped otherwise.
type ciTable struct {
	*table.Table
	keep []bool
}

func newCITable(title string, replicated bool, cols ...string) ciTable {
	t := ciTable{keep: make([]bool, len(cols))}
	for i, c := range cols {
		t.keep[i] = replicated || c != "±95%"
	}
	t.Table = table.New(title, t.kept(cols)...)
	return t
}

func (t ciTable) kept(cells []string) []string {
	var out []string
	for i, c := range cells {
		if t.keep[i] {
			out = append(out, c)
		}
	}
	return out
}

// add appends one row, given a cell for every column.
func (t ciTable) add(cells ...string) { t.MustAddRow(t.kept(cells)...) }

// SimValidateRow compares one scheme's simulated and fluid-predicted
// average online time per file.
type SimValidateRow struct {
	Scheme string
	P      float64
	Rho    float64 // CMFSD only; NaN otherwise
	Fluid  float64
	// Simulated is the across-replica mean of the average online time per
	// file (the single run's value when Replicas <= 1).
	Simulated float64
	// SimCI95 is the half-width of the 95% confidence interval of
	// Simulated (0 when Replicas <= 1).
	SimCI95 float64
	RelErr  float64
	// Completed counts completed users summed over all replicas.
	Completed int
}

// SimValidateResult is the E9 experiment output.
type SimValidateResult struct {
	Settings SimSettings
	Rows     []SimValidateRow
}

// simValidateSpec is one planned row: a scheme/ρ setting at one
// correlation, with its fluid prediction attached.
type simValidateSpec struct {
	scheme scheme.SimScheme
	p, rho float64 // rho is NaN for the non-CMFSD schemes
	fluid  float64
}

// SimValidatePlan is the job-layer decomposition of SimValidate: the
// sim-replica JobSpec whose grid cells are the table rows, plus the fluid
// predictions needed to fold the simulated aggregates back into the
// result. Serve runs it round by round through any executor — a fabric
// campaign — and renders the same table a local SimValidate produces.
type SimValidatePlan struct {
	// Spec is the runnable sim-replica job, one grid cell per table row.
	Spec  runner.JobSpec
	set   SimSettings
	specs []simValidateSpec
}

// PlanSimValidate solves the fluid predictions (cheap, memoized) and
// lowers the simulation matrix — every scheme at every correlation in ps —
// into a sim-replica JobSpec. ps must be non-empty.
func PlanSimValidate(set SimSettings, ps []float64) (*SimValidatePlan, error) {
	cache := set.cache()
	var specs []simValidateSpec
	for _, p := range ps {
		for _, pl := range []struct {
			scheme scheme.Scheme
			rho    float64 // NaN: the scheme has no ρ
		}{
			{scheme.MTSD, math.NaN()},
			{scheme.MTCD, math.NaN()},
			{scheme.MFCD, math.NaN()},
			{scheme.CMFSD, 0},
			{scheme.CMFSD, 0.5},
			{scheme.CMFSD, 1},
		} {
			r, err := cache.Evaluate(set.fluidKey(pl.scheme, p, pl.rho, 0))
			if err != nil {
				return nil, err
			}
			sc, err := scheme.ParseSim(string(pl.scheme))
			if err != nil {
				return nil, err
			}
			specs = append(specs, simValidateSpec{scheme: sc, p: p, rho: pl.rho, fluid: r.AvgOnlinePerFile()})
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: SimValidate needs at least one correlation")
	}
	cells := make([]sim.JobCell, len(specs))
	for i, sp := range specs {
		sc := eventsim.Config{
			Params: set.Params, K: set.K, Lambda0: set.Lambda0, P: sp.p,
			Horizon: set.Horizon, Warmup: set.Warmup,
		}
		if !math.IsNaN(sp.rho) {
			sc.Rho = sp.rho
		}
		cells[i] = sim.JobCell{Scheme: sp.scheme, Config: sim.Config{Flow: &sc}}
	}
	spec, err := sim.NewJobSpec(cells, set.Seed, set.Replicas)
	if err != nil {
		return nil, err
	}
	return &SimValidatePlan{Spec: spec, set: set, specs: specs}, nil
}

// Serve runs the plan under the settings' stopping rule (led by the online
// time per file, as SimValidate is) with every round's spec served by
// serve — see sim.RunRounds — and folds the aggregates into the result.
func (pl *SimValidatePlan) Serve(ctx context.Context, serve func(context.Context, runner.JobSpec) ([][]byte, error)) (*SimValidateResult, error) {
	aggs, err := sim.RunRounds(ctx, pl.Spec, pl.set.stopping(replica.OnlinePerFile), pl.set.Obs, serve)
	if err != nil {
		return nil, err
	}
	res := &SimValidateResult{Settings: pl.set}
	for i, agg := range aggs {
		sp := pl.specs[i]
		simulated := agg.Mean(replica.OnlinePerFile)
		res.Rows = append(res.Rows, SimValidateRow{
			Scheme: sp.scheme.String(), P: sp.p, Rho: sp.rho,
			Fluid:     sp.fluid,
			Simulated: simulated,
			SimCI95:   agg.CI95(replica.OnlinePerFile),
			RelErr:    stats.RelErr(simulated, sp.fluid, 1),
			Completed: int(agg.Count(replica.Completed)),
		})
	}
	return res, nil
}

// SimValidate runs the flow-level simulator for every scheme and compares
// the measured average online time per file against the fluid prediction
// (experiment E9 in DESIGN.md). The fluid predictions are memoized solves;
// the simulations — the expensive part — run as a sim-replica job:
// R = max(1, Settings.Replicas) independently seeded replicas per row, all
// rows and replicas sharing one worker pool, with Options.Samples and
// Options.CITarget honoured (see runCells). The result table is identical
// at every worker count; with R = 1 it is identical to the unreplicated
// tables this function produced before the replica engine existed.
// Canceling ctx aborts the remaining simulations.
func SimValidate(ctx context.Context, set SimSettings, ps []float64) (*SimValidateResult, error) {
	if len(ps) == 0 {
		return &SimValidateResult{Settings: set}, nil
	}
	plan, err := PlanSimValidate(set, ps)
	if err != nil {
		return nil, err
	}
	return plan.Serve(ctx, set.serve)
}

// Table renders the fluid-vs-simulation comparison. With more than one
// replica a ±95% column follows the simulated mean.
func (r *SimValidateResult) Table() *table.Table {
	tb := newCITable("Fluid model vs flow-level simulation: average online time per file", r.Settings.replicated(),
		"scheme", "p", "rho", "fluid", "simulated", "±95%", "rel err", "completed")
	for _, row := range r.Rows {
		rho := "-"
		if !math.IsNaN(row.Rho) {
			rho = fmt.Sprintf("%.1f", row.Rho)
		}
		tb.add(row.Scheme, fmt.Sprintf("%.2f", row.P), rho, table.Fmt(row.Fluid), table.Fmt(row.Simulated),
			ciCell(row.SimCI95), fmt.Sprintf("%.1f%%", 100*row.RelErr), fmt.Sprintf("%d", row.Completed))
	}
	return tb.Table
}

// AdaptRow is one cheater-fraction setting of the Adapt sweep.
type AdaptRow struct {
	CheaterFraction float64
	// MeanFinalRho is the across-replica mean of the per-run mean final ρ;
	// RhoCI95 its 95% confidence half-width (0 when Replicas <= 1).
	MeanFinalRho float64
	RhoCI95      float64
	// AvgOnline is the across-replica mean online time per file, with
	// OnlineCI95 its confidence half-width.
	AvgOnline  float64
	OnlineCI95 float64
	Completed  int
}

// AdaptSweepResult is the E8 experiment output.
type AdaptSweepResult struct {
	Settings SimSettings
	P        float64
	Adapt    adapt.Config
	Rows     []AdaptRow
}

// AdaptSweep evaluates the Adapt mechanism (the paper's future-work item)
// under increasing cheater fractions: obedient peers should converge to
// small ρ in a healthy swarm and drift toward ρ = 1 (MFCD behaviour) as
// cheating spreads. Every fraction is one cell of a sim-replica job (see
// runCells), led by the final ρ.
func AdaptSweep(ctx context.Context, set SimSettings, p float64, ac adapt.Config, cheaterFractions []float64) (*AdaptSweepResult, error) {
	res := &AdaptSweepResult{Settings: set, P: p, Adapt: ac}
	if len(cheaterFractions) == 0 {
		return res, nil
	}
	cells := make([]sim.JobCell, len(cheaterFractions))
	for i, frac := range cheaterFractions {
		cells[i] = adaptCell(set, p, ac, frac)
	}
	aggs, err := set.runCells(ctx, cells, replica.FinalRho)
	if err != nil {
		return nil, err
	}
	for i, agg := range aggs {
		res.Rows = append(res.Rows, AdaptRow{
			CheaterFraction: cheaterFractions[i],
			MeanFinalRho:    agg.Mean(replica.FinalRho),
			RhoCI95:         agg.CI95(replica.FinalRho),
			AvgOnline:       agg.Mean(replica.OnlinePerFile),
			OnlineCI95:      agg.CI95(replica.OnlinePerFile),
			Completed:       int(agg.Count(replica.Completed)),
		})
	}
	return res, nil
}

// Table renders the Adapt sweep; replicated settings add ±95% columns.
func (r *AdaptSweepResult) Table() *table.Table {
	tb := newCITable(
		fmt.Sprintf("Adapt mechanism under cheating (p=%.1f, φ=[%.3f,%.3f], υ=[%.2f,%.2f])",
			r.P, r.Adapt.Lower, r.Adapt.Upper, r.Adapt.StepUp, r.Adapt.StepDown),
		r.Settings.replicated(),
		"cheater fraction", "mean final rho", "±95%", "avg online/file", "±95%", "completed")
	for _, row := range r.Rows {
		tb.add(fmt.Sprintf("%.2f", row.CheaterFraction), fmt.Sprintf("%.3f", row.MeanFinalRho),
			fmt.Sprintf("±%.3f", row.RhoCI95), table.Fmt(row.AvgOnline), ciCell(row.OnlineCI95),
			fmt.Sprintf("%d", row.Completed))
	}
	return tb.Table
}

// SwarmRow is one scheme/ρ setting of the chunk-level comparison.
type SwarmRow struct {
	Scheme string
	Rho    float64
	// OnlinePerFile is the across-replica mean of online rounds per file;
	// OnlineCI95 its 95% confidence half-width (0 when replicas <= 1).
	OnlinePerFile float64
	OnlineCI95    float64
	Completed     int
}

// SwarmCompareResult is the chunk-level MFCD-vs-CMFSD comparison.
type SwarmCompareResult struct {
	Config  swarm.Config
	Options Options
	Rows    []SwarmRow
}

// SwarmCompare runs the chunk-level simulator for MFCD, MTSD and CMFSD
// over a ρ grid with otherwise identical parameters — the mechanism-level
// replay of Figure 4(a)'s ordering plus the multi-torrent sequential
// behaviour embedded in one swarm. Every row is one cell of a sim-replica
// job (see runCells) under opts: opts.Seed anchors the seed derivation
// (base's own Seed is not read), opts.Replicas, Workers, Samples,
// CITarget and Obs are honoured like every simulated experiment's, and
// the table is byte-identical at any worker count (and, with one replica,
// to the pre-replica-engine serial sweep). Canceling ctx aborts the
// remaining runs.
func SwarmCompare(ctx context.Context, base swarm.Config, rhos []float64, opts Options) (*SwarmCompareResult, error) {
	res := &SwarmCompareResult{Config: base, Options: opts}
	type rowSpec struct {
		scheme scheme.SimScheme
		rho    float64 // NaN for the schemes that ignore ρ
	}
	specs := []rowSpec{
		{scheme.SimMFCD, math.NaN()},
		{scheme.SimMTSD, math.NaN()},
	}
	for _, rho := range rhos {
		specs = append(specs, rowSpec{scheme.SimCMFSD, rho})
	}
	cells := make([]sim.JobCell, len(specs))
	for i, sp := range specs {
		c := base
		if !math.IsNaN(sp.rho) {
			c.Rho = sp.rho
		}
		cells[i] = sim.JobCell{Scheme: sp.scheme, Config: sim.Config{Chunk: &c}}
	}
	aggs, err := SimSettings{Options: opts}.runCells(ctx, cells, replica.OnlinePerFile)
	if err != nil {
		return nil, err
	}
	for i, agg := range aggs {
		sp := specs[i]
		res.Rows = append(res.Rows, SwarmRow{
			Scheme: sp.scheme.String(), Rho: sp.rho,
			OnlinePerFile: agg.Mean(replica.OnlinePerFile),
			OnlineCI95:    agg.CI95(replica.OnlinePerFile),
			Completed:     int(agg.Count(replica.Completed)),
		})
	}
	return res, nil
}

// Table renders the chunk-level comparison; replicated options add a
// ±95% column after the online-rounds mean.
func (r *SwarmCompareResult) Table() *table.Table {
	tb := newCITable(
		fmt.Sprintf("Chunk-level swarm: online rounds per file (K=%d, %d chunks/file, p=%.1f, η=%.2f)",
			r.Config.K, r.Config.ChunksPerFile, r.Config.P, r.Config.TFTEfficiency),
		r.Options.replicated(), "scheme", "rho", "online rounds/file", "±95%", "completed")
	for _, row := range r.Rows {
		rho := "-"
		if !math.IsNaN(row.Rho) {
			rho = fmt.Sprintf("%.1f", row.Rho)
		}
		tb.add(row.Scheme, rho, table.Fmt(row.OnlinePerFile), ciCell(row.OnlineCI95), fmt.Sprintf("%d", row.Completed))
	}
	return tb.Table
}
