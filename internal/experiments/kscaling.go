package experiments

import (
	"context"
	"fmt"

	"mfdl/internal/runner"
	"mfdl/internal/scheme"
	"mfdl/internal/table"
)

// KScalingRow is one torrent size of the K-scaling study.
type KScalingRow struct {
	K           int
	MFCD        float64 // avg online time per file
	CMFSD       float64 // same at ρ = 0
	GainPercent float64 // 100·(1 − CMFSD/MFCD)
}

// KScalingResult asks how the collaboration gain grows with the number of
// files in the torrent — the publisher's question ("should I split the
// season?") that the paper's fixed K = 10 leaves open (E14 in DESIGN.md).
type KScalingResult struct {
	Config Config // K field ignored; P taken from the argument
	P      float64
	Rows   []KScalingRow
}

// KScaling evaluates MFCD vs CMFSD(ρ=0) over torrent sizes: one k Sweep
// per scheme with cfg.Options.
func KScaling(ctx context.Context, cfg Config, p float64, ks []int) (*KScalingResult, error) {
	k := runner.Dim{Name: "k"}
	for _, n := range ks {
		k.Values = append(k.Values, float64(n))
	}
	mfcd, err := onlineGrid(ctx, cfg, scheme.MFCD, p, k)
	if err != nil {
		return nil, err
	}
	collab, err := onlineGrid(ctx, cfg, scheme.CMFSD, p, k)
	if err != nil {
		return nil, err
	}
	res := &KScalingResult{Config: cfg, P: p}
	for i, n := range ks {
		row := KScalingRow{K: n, MFCD: mfcd[i], CMFSD: collab[i]}
		row.GainPercent = 100 * (1 - row.CMFSD/row.MFCD)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the K-scaling study.
func (r *KScalingResult) Table() *table.Table {
	tb := table.New(
		fmt.Sprintf("Collaboration gain vs torrent size (p=%.1f, ρ=0)", r.P),
		"K", "MFCD online/file", "CMFSD online/file", "gain")
	for _, row := range r.Rows {
		tb.MustAddRow(fmt.Sprintf("%d", row.K),
			table.Fmt(row.MFCD), table.Fmt(row.CMFSD),
			fmt.Sprintf("%.1f%%", row.GainPercent))
	}
	return tb
}
