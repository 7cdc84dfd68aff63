package experiments

import (
	"context"
	"fmt"

	"mfdl/internal/eventsim"
	"mfdl/internal/fluid"
	"mfdl/internal/numeric/ode"
	"mfdl/internal/replica"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/stats"
	"mfdl/internal/table"
)

// HeteroRow compares one bandwidth class across fluid and simulation.
type HeteroRow struct {
	Name          string
	FluidDownload float64
	// SimDownload is the across-replica mean download time; SimCI95 its
	// 95% confidence half-width (0 for a single replica).
	SimDownload float64
	SimCI95     float64
	RelErr      float64
	// Completed counts completed class users summed over all replicas.
	Completed int
}

// HeteroResult is the E15 experiment: the Section-2 multi-class fluid
// model validated by the event simulator on a single heterogeneous
// torrent.
type HeteroResult struct {
	Eta     float64
	Options Options
	Rows    []HeteroRow
}

// HeteroClass describes one class for the E15 experiment.
type HeteroClass struct {
	Name     string
	Mu       float64
	Weight   float64
	Fraction float64
}

// Hetero runs the heterogeneous-swarm validation: one torrent (K = 1),
// the given bandwidth classes, MTSD peers. The simulation side is a
// one-cell sim-replica job (see runCells), led by the download time.
func Hetero(ctx context.Context, set SimSettings, lambda0 float64, classes []HeteroClass) (*HeteroResult, error) {
	bw := make([]eventsim.BandwidthClass, len(classes))
	fl := make([]fluid.Class, len(classes))
	for i, c := range classes {
		bw[i] = eventsim.BandwidthClass{Name: c.Name, Mu: c.Mu, Weight: c.Weight, Fraction: c.Fraction}
		fl[i] = fluid.Class{Name: c.Name, Mu: c.Mu, C: c.Weight, Lambda: lambda0 * c.Fraction, Gamma: set.Params.Gamma}
	}
	fm, err := fluid.NewMultiClass(set.Params.Eta, fl)
	if err != nil {
		return nil, err
	}
	ss, err := fluid.SteadyState(fm, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		return nil, err
	}
	dl, _, err := fm.ClassTimes(ss)
	if err != nil {
		return nil, err
	}
	aggs, err := set.runCells(ctx, []sim.JobCell{{Scheme: scheme.SimMTSD, Config: sim.Config{Flow: &eventsim.Config{
		Params:    set.Params,
		K:         1,
		Lambda0:   lambda0,
		P:         1,
		Horizon:   set.Horizon,
		Warmup:    set.Warmup,
		Bandwidth: bw,
	}}}}, replica.DownloadPerFile)
	if err != nil {
		return nil, err
	}
	agg := aggs[0]
	res := &HeteroResult{Eta: set.Params.Eta, Options: set.Options}
	for i, c := range classes {
		got := agg.Mean(replica.BandwidthKey(c.Name, replica.DownloadPerFile))
		res.Rows = append(res.Rows, HeteroRow{
			Name:          c.Name,
			FluidDownload: dl[i],
			SimDownload:   got,
			SimCI95:       agg.CI95(replica.BandwidthKey(c.Name, replica.DownloadPerFile)),
			RelErr:        stats.RelErr(got, dl[i], 1),
			Completed:     int(agg.Count(replica.BandwidthKey(c.Name, replica.Completed))),
		})
	}
	return res, nil
}

// Table renders the heterogeneous validation; replicated options add a
// ±95% column after the simulated mean.
func (r *HeteroResult) Table() *table.Table {
	tb := newCITable(fmt.Sprintf("Heterogeneous swarm: multi-class fluid vs simulation (η=%.2f)", r.Eta),
		r.Options.replicated(), "class", "fluid download", "sim download", "±95%", "rel err", "completed")
	for _, row := range r.Rows {
		tb.add(row.Name, table.Fmt(row.FluidDownload), table.Fmt(row.SimDownload), ciCell(row.SimCI95),
			fmt.Sprintf("%.1f%%", 100*row.RelErr), fmt.Sprintf("%d", row.Completed))
	}
	return tb.Table
}
