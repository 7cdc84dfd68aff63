package experiments

import (
	"context"
	"fmt"

	"mfdl/internal/adapt"
	"mfdl/internal/replica"
	"mfdl/internal/sim"
	"mfdl/internal/table"
)

// AdaptParamRow is one controller setting of the parameter study.
type AdaptParamRow struct {
	Label     string
	Threshold float64 // symmetric |φ| as a fraction of μ
	StepUp    float64
	StepDown  float64
	Period    float64
	// MeanFinalRho / AvgOnline are across-replica means; the CI95 fields
	// carry their 95% confidence half-widths (0 when Replicas <= 1).
	MeanFinalRho float64
	RhoCI95      float64
	AvgOnline    float64
	OnlineCI95   float64
}

// AdaptParamsResult answers the paper's explicit future-work question:
// "the effectiveness of the Adapt mechanism needs to be systematically
// evaluated, probing the proper settings for the parameters φ₁, φ₂, υ₁ and
// υ₂." Every setting is run twice — in an all-obedient swarm and against a
// cheating majority — because a good controller must hold ρ ≈ 0 in the
// first and drive ρ → 1 in the second.
type AdaptParamsResult struct {
	Settings        SimSettings
	P               float64
	CheaterFraction float64
	// Clean and Cheated hold one row per setting, same order.
	Clean, Cheated []AdaptParamRow
}

// AdaptParams sweeps the controller parameters. thresholds are symmetric
// |φ| values as fractions of μ; steps are (υ₁, υ₂) pairs; periods are
// observation windows. All settings × {clean, cheated} are the cells of one
// sim-replica job (see runSimJob), led by the final ρ.
func AdaptParams(ctx context.Context, set SimSettings, p, cheaterFraction float64,
	thresholds, stepUps, periods []float64) (*AdaptParamsResult, error) {
	res := &AdaptParamsResult{Settings: set, P: p, CheaterFraction: cheaterFraction}
	type spec struct {
		ac     adapt.Config
		label  string
		th, up float64
		cheat  float64
	}
	var specs []spec
	for _, th := range thresholds {
		for _, up := range stepUps {
			for _, period := range periods {
				ac := adapt.Config{
					Lower:       -th * set.Params.Mu,
					Upper:       th * set.Params.Mu,
					StepUp:      up,
					StepDown:    up / 2,
					Period:      period,
					InitialRho:  0,
					Consecutive: 2,
				}
				label := fmt.Sprintf("|φ|=%.2fμ υ₁=%.2f T=%g", th, up, period)
				specs = append(specs,
					spec{ac: ac, label: label, th: th, up: up, cheat: 0},
					spec{ac: ac, label: label, th: th, up: up, cheat: cheaterFraction})
			}
		}
	}
	if len(specs) == 0 {
		return res, nil
	}
	cells := make([]sim.JobCell, len(specs))
	for i, sp := range specs {
		cells[i] = adaptCell(set, p, sp.ac, sp.cheat)
	}
	aggs, err := set.runCells(ctx, cells, replica.FinalRho)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(specs); i += 2 {
		sp := specs[i]
		mk := func(agg replica.Agg) AdaptParamRow {
			return AdaptParamRow{
				Label:        sp.label,
				Threshold:    sp.th,
				StepUp:       sp.up,
				StepDown:     sp.up / 2,
				Period:       sp.ac.Period,
				MeanFinalRho: agg.Mean(replica.FinalRho),
				RhoCI95:      agg.CI95(replica.FinalRho),
				AvgOnline:    agg.Mean(replica.OnlinePerFile),
				OnlineCI95:   agg.CI95(replica.OnlinePerFile),
			}
		}
		res.Clean = append(res.Clean, mk(aggs[i]))
		res.Cheated = append(res.Cheated, mk(aggs[i+1]))
	}
	return res, nil
}

// Table renders the parameter study: for each setting, the equilibrium ρ
// and performance in the clean and cheated swarms. Replicated settings
// add ±95% columns after each ρ.
func (r *AdaptParamsResult) Table() *table.Table {
	tb := newCITable(
		fmt.Sprintf("Adapt parameter study (p=%.1f; cheated runs at %.0f%% cheaters)",
			r.P, 100*r.CheaterFraction),
		r.Settings.replicated(),
		"setting", "clean rho", "±95%", "clean online/file", "cheated rho", "±95%", "cheated online/file")
	for i, clean := range r.Clean {
		cheated := r.Cheated[i]
		tb.add(clean.Label, fmt.Sprintf("%.3f", clean.MeanFinalRho), fmt.Sprintf("±%.3f", clean.RhoCI95),
			table.Fmt(clean.AvgOnline), fmt.Sprintf("%.3f", cheated.MeanFinalRho),
			fmt.Sprintf("±%.3f", cheated.RhoCI95), table.Fmt(cheated.AvgOnline))
	}
	return tb.Table
}

// Score summarizes one setting's quality: lower is better. It charges the
// clean swarm's performance loss relative to the best possible (ρ stays 0)
// plus the cheated swarm's failure to protect obedient peers (ρ should
// rise toward 1).
func (r *AdaptParamsResult) Score(i int) float64 {
	return r.Clean[i].MeanFinalRho + (1 - r.Cheated[i].MeanFinalRho)
}

// Best returns the index of the best-scoring setting.
func (r *AdaptParamsResult) Best() int {
	best, bestScore := 0, r.Score(0)
	for i := 1; i < len(r.Clean); i++ {
		if s := r.Score(i); s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}
