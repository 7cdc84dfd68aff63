package experiments

import (
	"context"
	"fmt"
	"math"

	"mfdl/internal/eventsim"
	"mfdl/internal/faults"
	"mfdl/internal/replica"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/stats"
	"mfdl/internal/table"
)

// ChurnRow compares one scheme's mean download time per file under abort
// rate θ: the fluid prediction (the θ-extended model) against the
// flow-level simulation with a matching fault plan.
type ChurnRow struct {
	Scheme string
	Theta  float64
	Rho    float64 // CMFSD only; NaN otherwise
	Fluid  float64
	// Simulated is the across-replica mean download time per file; aborted
	// users contribute their partial times (Little's law, like the fluid
	// θ·x term) but never the completion counts.
	Simulated float64
	SimCI95   float64
	RelErr    float64
	Completed int
	Aborted   int
}

// SeedQuitRow tracks CMFSD degradation as virtual seeds depart: the
// quit-free fluid prediction against simulation with seed-quit faults.
type SeedQuitRow struct {
	QuitRate float64
	// Ideal is the fluid CMFSD prediction with no departures (the same
	// value on every row — the baseline the simulated column drifts from).
	Ideal     float64
	Simulated float64
	SimCI95   float64
	Completed int
	SeedQuits int
}

// ChurnSweepResult is the fault-injection experiment output: the abort
// axis over all schemes, plus the CMFSD virtual-seed-departure axis.
type ChurnSweepResult struct {
	Settings  SimSettings
	P         float64
	ChaosSeed uint64
	Rows      []ChurnRow
	QuitRows  []SeedQuitRow
}

// churnSpec is one planned simulation cell of either axis.
type churnSpec struct {
	scheme   scheme.SimScheme
	theta    float64
	rho      float64 // NaN for the non-CMFSD schemes
	fluid    float64
	quitAxis bool
	quitRate float64
}

// ChurnSweep measures resilience to churn. For every abort rate θ in
// thetas it runs MTSD, MTCD and CMFSD (ρ=0.5) through the flow-level
// simulator with a deterministic fault plan derived from chaosSeed, and
// compares the mean download time per file against the θ-extended fluid
// model. For every rate in quitRates it runs CMFSD with virtual-seed
// departures and reports the drift from the quit-free fluid ideal. All
// cells and replicas fan out over one worker pool; the same chaosSeed
// yields a byte-identical result at any worker count. When Settings.Obs
// is non-nil the aggregate injected-fault counts are recorded on the
// faults_* counters. Canceling ctx aborts the remaining simulations.
//
// The fluid θ-extension keeps the Qiu–Srikant min-flux service, which is
// memoryless: a downloader's residence under abort hazard θ is
// 1/(θ + 1/T). Real downloads are a fixed unit of data, so the simulated
// residence is the larger (1 − e^(−θT))/θ — the fluid column drifts below
// the simulation as θ·T grows. At mild churn (θ·T ≲ 0.1) the two agree to
// within the usual finite-size error.
func ChurnSweep(ctx context.Context, set SimSettings, p float64, chaosSeed uint64, thetas, quitRates []float64) (*ChurnSweepResult, error) {
	res := &ChurnSweepResult{Settings: set, P: p, ChaosSeed: chaosSeed}
	cache := set.cache()
	predict := func(sc scheme.Scheme, rho, theta float64) (float64, error) {
		r, err := cache.Evaluate(set.fluidKey(sc, p, rho, theta))
		if err != nil {
			return 0, err
		}
		return r.AvgDownloadPerFile(), nil
	}
	var specs []churnSpec
	for _, th := range thetas {
		for _, pl := range []struct {
			scheme scheme.Scheme
			rho    float64 // NaN: the scheme has no ρ
		}{
			{scheme.MTSD, math.NaN()},
			{scheme.MTCD, math.NaN()},
			{scheme.CMFSD, 0.5},
		} {
			fluidVal, err := predict(pl.scheme, pl.rho, th)
			if err != nil {
				return nil, err
			}
			sc, err := scheme.ParseSim(string(pl.scheme))
			if err != nil {
				return nil, err
			}
			specs = append(specs, churnSpec{scheme: sc, theta: th, rho: pl.rho, fluid: fluidVal})
		}
	}
	if len(quitRates) > 0 {
		ideal, err := predict(scheme.CMFSD, 0.5, 0)
		if err != nil {
			return nil, err
		}
		for _, q := range quitRates {
			specs = append(specs, churnSpec{
				scheme: scheme.SimCMFSD, rho: 0.5, fluid: ideal,
				quitAxis: true, quitRate: q,
			})
		}
	}
	if len(specs) == 0 {
		return res, nil
	}
	cells := make([]sim.JobCell, len(specs))
	for i, sp := range specs {
		fc := faults.Config{Seed: chaosSeed}
		if sp.quitAxis {
			fc.SeedQuitRate = sp.quitRate
		} else {
			fc.AbortRate = sp.theta
		}
		sc := eventsim.Config{
			Params: set.Params, K: set.K, Lambda0: set.Lambda0, P: p,
			Horizon: set.Horizon, Warmup: set.Warmup,
			Faults: fc,
		}
		if !math.IsNaN(sp.rho) {
			sc.Rho = sp.rho
		}
		cells[i] = sim.JobCell{Scheme: sp.scheme, Config: sim.Config{Flow: &sc}}
	}
	// The fault plan rides inside the configs (Faults.Seed), so it is part
	// of every cell's job and sample-store identity: a different chaos seed
	// never replays another seed's samples.
	aggs, err := set.runCells(ctx, cells, replica.DownloadPerFile)
	if err != nil {
		return nil, err
	}
	var aborts, quits uint64
	for i, agg := range aggs {
		sp := specs[i]
		simulated := agg.Mean(replica.DownloadPerFile)
		aborts += uint64(agg.Count(replica.Aborted))
		quits += uint64(agg.Count(replica.SeedQuits))
		if sp.quitAxis {
			res.QuitRows = append(res.QuitRows, SeedQuitRow{
				QuitRate:  sp.quitRate,
				Ideal:     sp.fluid,
				Simulated: simulated,
				SimCI95:   agg.CI95(replica.DownloadPerFile),
				Completed: int(agg.Count(replica.Completed)),
				SeedQuits: int(agg.Count(replica.SeedQuits)),
			})
			continue
		}
		res.Rows = append(res.Rows, ChurnRow{
			Scheme: sp.scheme.String(), Theta: sp.theta, Rho: sp.rho,
			Fluid:     sp.fluid,
			Simulated: simulated,
			SimCI95:   agg.CI95(replica.DownloadPerFile),
			RelErr:    stats.RelErr(simulated, sp.fluid, 1),
			Completed: int(agg.Count(replica.Completed)),
			Aborted:   int(agg.Count(replica.Aborted)),
		})
	}
	set.Obs.Counter("faults_aborts_total").Add(aborts)
	set.Obs.Counter("faults_seed_quits_total").Add(quits)
	return res, nil
}

// Table renders the abort axis: fluid vs simulated mean download time per
// file as θ grows. Replicated settings add a ±95% column.
func (r *ChurnSweepResult) Table() *table.Table {
	tb := newCITable(
		fmt.Sprintf("Churn: mean download time per file vs abort rate θ (p=%.2f, chaos seed %d)",
			r.P, r.ChaosSeed),
		r.Settings.replicated(),
		"scheme", "theta", "rho", "fluid", "simulated", "±95%", "rel err", "completed", "aborted")
	for _, row := range r.Rows {
		rho := "-"
		if !math.IsNaN(row.Rho) {
			rho = fmt.Sprintf("%.1f", row.Rho)
		}
		tb.add(row.Scheme, table.Fmt(row.Theta), rho, table.Fmt(row.Fluid), table.Fmt(row.Simulated),
			ciCell(row.SimCI95), fmt.Sprintf("%.1f%%", 100*row.RelErr),
			fmt.Sprintf("%d", row.Completed), fmt.Sprintf("%d", row.Aborted))
	}
	return tb.Table
}

// QuitTable renders the virtual-seed-departure axis.
func (r *ChurnSweepResult) QuitTable() *table.Table {
	tb := newCITable(
		fmt.Sprintf("Churn: CMFSD (ρ=0.5) download time per file vs virtual-seed departure (p=%.2f, chaos seed %d)",
			r.P, r.ChaosSeed),
		r.Settings.replicated(), "quit rate", "fluid ideal", "simulated", "±95%", "completed", "seed quits")
	for _, row := range r.QuitRows {
		tb.add(table.Fmt(row.QuitRate), table.Fmt(row.Ideal), table.Fmt(row.Simulated), ciCell(row.SimCI95),
			fmt.Sprintf("%d", row.Completed), fmt.Sprintf("%d", row.SeedQuits))
	}
	return tb.Table
}

// Tables returns the rendered axes that have rows, abort axis first.
func (r *ChurnSweepResult) Tables() []*table.Table {
	var out []*table.Table
	if len(r.Rows) > 0 {
		out = append(out, r.Table())
	}
	if len(r.QuitRows) > 0 {
		out = append(out, r.QuitTable())
	}
	return out
}
