// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4) plus the extension studies listed in DESIGN.md:
//
//	Fig2        — average online time per file vs file correlation p,
//	              MTCD vs MTSD (E2)
//	Fig3        — per-class online/download time per file, MTCD vs MTSD,
//	              at p = 0.1 and p = 1.0 (E3)
//	Fig4A       — CMFSD average online time per file over a p × ρ grid (E4)
//	Fig4BC      — per-class times, CMFSD ρ ∈ {0.1, 0.9} vs MFCD, at
//	              p = 0.9 and p = 0.1 (E5/E6)
//	Validate    — K = 1 degeneracy against the Qiu–Srikant closed form (E7)
//	AdaptSweep / AdaptParams — the Adapt mechanism under cheating and its
//	              φ/υ/period parameter probe (E8/E16, the paper's future work)
//	SimValidate — fluid vs flow-level simulation for all schemes (E9)
//	EtaAblation — Fig-2 replay at η ∈ {0.25, 0.5, 0.75, 1.0} (E10)
//	StabilityTable — Jacobian spectral abscissas at the operating points (E11)
//	SwarmCompare — chunk-level scheme comparison (E12)
//	Transient   — flash-crowd trajectory, fluid vs simulation (E13)
//	KScaling    — collaboration gain vs torrent size (E14)
//	Hetero      — multi-class fluid vs heterogeneous simulation (E15)
//	Crossover   — per-class correlation threshold where MTCD stops beating
//	              MTSD
//	CheatingSweep — mixed obedient/cheater fluid populations
//
// Every function returns both structured series (for tests and benchmarks)
// and a *table.Table rendering of exactly the rows the paper plots.
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mfdl/internal/cmfsd"
	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/mtcd"
	"mfdl/internal/numeric/ode"
	"mfdl/internal/numeric/rootfind"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
	"mfdl/internal/table"
)

// Options is the execution-option surface shared by the whole experiment
// family: Config, SweepSpec and SimSettings each embed it, so every knob
// has one spelling. Each experiment reads the fields it needs.
type Options struct {
	// Cache, when non-nil, memoizes every steady-state solve — across
	// figures, across calls and (when the cache carries a disk tier)
	// across processes. Nil gives each call a fresh in-memory cache (or
	// whatever the concrete experiment wires, e.g. SweepSpec.CacheDir).
	Cache *runner.Cache
	// Obs, when non-nil, instruments the run: the runner pool's cell
	// metrics, the solve cache's counters, the replica engine's
	// histograms. Results are byte-identical with or without it.
	Obs *obs.Registry
	// Seed is the base seed every replica's seed derives from.
	Seed uint64
	// Replicas is R, the independently seeded replicas behind every
	// simulated table row; 0 or 1 reproduces unreplicated tables
	// byte-for-byte. Fluid solves ignore it (they are deterministic) but
	// carry it in the job identity.
	Replicas int
	// Workers bounds the worker pool; <= 0 means all cores.
	Workers int
	// Samples, when non-nil, is the keyed replica-sample store the
	// simulator-backed experiments read and write through the job layer:
	// a re-run with a larger Replicas (or a tighter CITarget) replays
	// every stored sample and simulates only the missing ones. Fluid
	// solves ignore it.
	Samples *diskcache.SampleStore
	// CITarget, when > 0, enables sequential stopping for the
	// simulator-backed experiments: each table row's replica count grows
	// (doubling, bounded by ReplicasMax) until the 95% confidence
	// half-width of CIMetric reaches CITarget. Zero keeps the fixed
	// Replicas count.
	CITarget float64
	// CIMetric names the stopping metric (a replica Sample.Values key);
	// empty uses each experiment's headline metric.
	CIMetric string
	// ReplicasMax bounds sequential-stopping growth per row; values below
	// the starting replica count are raised to it.
	ReplicasMax int
}

// Config holds the evaluation setting shared by all experiments.
type Config struct {
	fluid.Params
	// K is the number of files (and torrents/subtorrents).
	K int
	// Lambda0 is the web-server visiting rate λ₀.
	Lambda0 float64
	// Options is the shared execution-option surface; Config consumes its
	// Cache field.
	Options
}

// PaperConfig reproduces the parameters used in every figure of the paper:
// K = 10, μ = 0.02, η = 0.5, γ = 0.05 (λ₀ = 1; all times are λ₀-invariant).
var PaperConfig = Config{Params: fluid.PaperParams, K: 10, Lambda0: 1}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.K < 1 {
		return fmt.Errorf("experiments: K = %d must be >= 1", c.K)
	}
	if c.Lambda0 <= 0 {
		return fmt.Errorf("experiments: λ₀ = %v must be positive", c.Lambda0)
	}
	return nil
}

func (c Config) corr(p float64) (*correlation.Model, error) {
	return correlation.New(c.K, p, c.Lambda0)
}

// cache is the solve cache the options carry, or a fresh one when they
// carry none.
func (o Options) cache() *runner.Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return runner.NewCache()
}

// eval solves one scheme at one operating point through the Config's
// solve cache.
func (c Config) eval(sc scheme.Scheme, p, rho float64) (*metrics.SchemeResult, error) {
	return c.cache().Evaluate(runner.Key{
		Scheme: sc, Params: c.Params, K: c.K, P: p, Lambda0: c.Lambda0, Rho: rho,
	})
}

// onlineGrid evaluates sc's average online time per file over the grid of
// dims at cfg's operating point and correlation p — one Sweep with
// cfg.Options — in row-major cell order.
func onlineGrid(ctx context.Context, cfg Config, sc scheme.Scheme, p float64, dims ...runner.Dim) ([]float64, error) {
	if slices.ContainsFunc(dims, func(d runner.Dim) bool { return len(d.Values) == 0 }) {
		return nil, nil
	}
	grid, err := runner.NewGrid(dims...)
	if err != nil {
		return nil, err
	}
	sw, err := Sweep(ctx, SweepSpec{Config: cfg, P: p, Scheme: sc, Grid: grid, Options: cfg.Options})
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(sw.Cells))
	for i, c := range sw.Cells {
		out[i] = c.AvgOnline
	}
	return out, nil
}

// Fig2Point is one x-position of Figure 2.
type Fig2Point struct {
	P          float64
	MTCDOnline float64 // average online time per file under MTCD
	MTSDOnline float64 // same under MTSD (flat in p)
}

// Fig2Result holds the Figure 2 series.
type Fig2Result struct {
	Config Config
	Points []Fig2Point
}

// Fig2 evaluates the MTCD and MTSD average online time per file over the
// given correlation grid (Figure 2 of the paper): one p Sweep per scheme
// with cfg.Options.
func Fig2(ctx context.Context, cfg Config, pGrid []float64) (*Fig2Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ps := runner.Dim{Name: "p", Values: pGrid}
	mtcd, err := onlineGrid(ctx, cfg, scheme.MTCD, 0, ps)
	if err != nil {
		return nil, err
	}
	mtsd, err := onlineGrid(ctx, cfg, scheme.MTSD, 0, ps)
	if err != nil {
		return nil, err
	}
	res := &Fig2Result{Config: cfg}
	for i, p := range pGrid {
		res.Points = append(res.Points, Fig2Point{P: p, MTCDOnline: mtcd[i], MTSDOnline: mtsd[i]})
	}
	return res, nil
}

// Table renders the Figure 2 series.
func (r *Fig2Result) Table() *table.Table {
	tb := table.New(
		fmt.Sprintf("Figure 2: average online time per file vs file correlation (K=%d, μ=%g, η=%g, γ=%g)",
			r.Config.K, r.Config.Mu, r.Config.Eta, r.Config.Gamma),
		"p", "MTCD", "MTSD")
	for _, pt := range r.Points {
		tb.MustAddRow(fmt.Sprintf("%.2f", pt.P), table.Fmt(pt.MTCDOnline), table.Fmt(pt.MTSDOnline))
	}
	return tb
}

// Fig3Row is one class of Figure 3 at one correlation value.
type Fig3Row struct {
	Class                      int
	MTCDOnline, MTSDOnline     float64 // online time per file
	MTCDDownload, MTSDDownload float64 // download time per file
}

// Fig3Result holds the per-class series for one correlation value.
type Fig3Result struct {
	Config Config
	P      float64
	Rows   []Fig3Row
}

// Fig3 evaluates the per-class online and download time per file under
// MTCD and MTSD at the given correlation (the paper plots p = 0.1 and 1.0).
func Fig3(cfg Config, p float64) (*Fig3Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rc, err := cfg.eval(scheme.MTCD, p, 0)
	if err != nil {
		return nil, err
	}
	rs, err := cfg.eval(scheme.MTSD, p, 0)
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Config: cfg, P: p}
	for i := 1; i <= cfg.K; i++ {
		cc, _ := rc.Class(i)
		cs, _ := rs.Class(i)
		res.Rows = append(res.Rows, Fig3Row{
			Class:        i,
			MTCDOnline:   cc.OnlinePerFile(),
			MTSDOnline:   cs.OnlinePerFile(),
			MTCDDownload: cc.DownloadPerFile(),
			MTSDDownload: cs.DownloadPerFile(),
		})
	}
	return res, nil
}

// Table renders the Figure 3 series for this correlation value.
func (r *Fig3Result) Table() *table.Table {
	tb := table.New(
		fmt.Sprintf("Figure 3 (p=%.1f): per-class times per file", r.P),
		"class", "MTCD online", "MTSD online", "MTCD download", "MTSD download")
	for _, row := range r.Rows {
		tb.MustAddRow(fmt.Sprintf("%d", row.Class),
			table.Fmt(row.MTCDOnline), table.Fmt(row.MTSDOnline),
			table.Fmt(row.MTCDDownload), table.Fmt(row.MTSDDownload))
	}
	return tb
}

// Fig4AResult is the p × ρ surface of Figure 4(a).
type Fig4AResult struct {
	Config  Config
	PGrid   []float64
	RhoGrid []float64
	// Online[i][j] is the CMFSD average online time per file at
	// p = PGrid[i], ρ = RhoGrid[j].
	Online [][]float64
}

// Fig4A evaluates the CMFSD average online time per file over the given
// correlation and allocation-ratio grids (Figure 4(a)): a p × ρ Sweep with
// cfg.Options, whose cells fan out over the runner pool; canceling ctx
// aborts the remaining cells promptly.
func Fig4A(ctx context.Context, cfg Config, pGrid, rhoGrid []float64) (*Fig4AResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	online, err := onlineGrid(ctx, cfg, scheme.CMFSD, 0,
		runner.Dim{Name: "p", Values: pGrid}, runner.Dim{Name: "rho", Values: rhoGrid})
	if err != nil {
		return nil, err
	}
	res := &Fig4AResult{Config: cfg, PGrid: pGrid, RhoGrid: rhoGrid}
	for i := range pGrid {
		res.Online = append(res.Online, online[i*len(rhoGrid):(i+1)*len(rhoGrid)])
	}
	return res, nil
}

// Table renders the Figure 4(a) surface with one row per p.
func (r *Fig4AResult) Table() *table.Table {
	cols := []string{"p \\ rho"}
	for _, rho := range r.RhoGrid {
		cols = append(cols, fmt.Sprintf("%.2f", rho))
	}
	tb := table.New("Figure 4(a): CMFSD average online time per file", cols...)
	for i, p := range r.PGrid {
		cells := []string{fmt.Sprintf("%.2f", p)}
		for _, v := range r.Online[i] {
			cells = append(cells, table.Fmt(v))
		}
		tb.MustAddRow(cells...)
	}
	return tb
}

// Fig4BCRow is one class of Figure 4(b) or (c).
type Fig4BCRow struct {
	Class int
	// Online and download time per file under CMFSD with the low and
	// high ρ settings, and under the MFCD baseline.
	OnlineLowRho, OnlineHighRho, OnlineMFCD       float64
	DownloadLowRho, DownloadHighRho, DownloadMFCD float64
}

// Fig4BCResult holds one panel of Figure 4(b)/(c).
type Fig4BCResult struct {
	Config          Config
	P               float64
	LowRho, HighRho float64
	Rows            []Fig4BCRow
}

// Fig4BC evaluates the per-class times under CMFSD at two ρ settings and
// under MFCD, at the given correlation (the paper uses ρ ∈ {0.1, 0.9} with
// p = 0.9 for panel (b) and p = 0.1 for panel (c)).
func Fig4BC(cfg Config, p, lowRho, highRho float64) (*Fig4BCResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	low, err := cfg.eval(scheme.CMFSD, p, lowRho)
	if err != nil {
		return nil, err
	}
	high, err := cfg.eval(scheme.CMFSD, p, highRho)
	if err != nil {
		return nil, err
	}
	mfcd, err := cfg.eval(scheme.MFCD, p, 0)
	if err != nil {
		return nil, err
	}
	res := &Fig4BCResult{Config: cfg, P: p, LowRho: lowRho, HighRho: highRho}
	for i := 1; i <= cfg.K; i++ {
		cl, _ := low.Class(i)
		ch, _ := high.Class(i)
		cm, _ := mfcd.Class(i)
		res.Rows = append(res.Rows, Fig4BCRow{
			Class:           i,
			OnlineLowRho:    cl.OnlinePerFile(),
			OnlineHighRho:   ch.OnlinePerFile(),
			OnlineMFCD:      cm.OnlinePerFile(),
			DownloadLowRho:  cl.DownloadPerFile(),
			DownloadHighRho: ch.DownloadPerFile(),
			DownloadMFCD:    cm.DownloadPerFile(),
		})
	}
	return res, nil
}

// Table renders one panel of Figure 4(b)/(c).
func (r *Fig4BCResult) Table() *table.Table {
	tb := table.New(
		fmt.Sprintf("Figure 4 (p=%.1f): per-class times per file, CMFSD ρ=%.1f / ρ=%.1f vs MFCD",
			r.P, r.LowRho, r.HighRho),
		"class",
		fmt.Sprintf("online ρ=%.1f", r.LowRho), fmt.Sprintf("online ρ=%.1f", r.HighRho), "online MFCD",
		fmt.Sprintf("download ρ=%.1f", r.LowRho), fmt.Sprintf("download ρ=%.1f", r.HighRho), "download MFCD")
	for _, row := range r.Rows {
		tb.MustAddRow(fmt.Sprintf("%d", row.Class),
			table.Fmt(row.OnlineLowRho), table.Fmt(row.OnlineHighRho), table.Fmt(row.OnlineMFCD),
			table.Fmt(row.DownloadLowRho), table.Fmt(row.DownloadHighRho), table.Fmt(row.DownloadMFCD))
	}
	return tb
}

// ValidationResult compares the degenerate K = 1 instances of every scheme
// against the Qiu–Srikant closed form (the paper's model-correctness
// argument at the end of Section 3.3).
type ValidationResult struct {
	SingleDownload float64 // closed-form T
	SingleOnline   float64 // closed-form T + 1/γ
	MTCDOnline     float64
	MTSDOnline     float64
	CMFSDOnline    float64
	MaxRelErr      float64
}

// Validate runs the degeneracy check (E7).
func Validate(cfg Config) (*ValidationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	one := cfg
	one.K = 1
	st, err := fluid.NewSingleTorrent(one.Params, one.Lambda0)
	if err != nil {
		return nil, err
	}
	tDl, err := st.SingleDownloadTime()
	if err != nil {
		return nil, err
	}
	tOn := tDl + 1/one.Gamma
	rc, err := one.eval(scheme.MTCD, 0.8, 0)
	if err != nil {
		return nil, err
	}
	rs, err := one.eval(scheme.MTSD, 0.8, 0)
	if err != nil {
		return nil, err
	}
	rf, err := one.eval(scheme.CMFSD, 0.8, 0.5)
	if err != nil {
		return nil, err
	}
	c1, _ := rc.Class(1)
	s1, _ := rs.Class(1)
	f1, _ := rf.Class(1)
	res := &ValidationResult{
		SingleDownload: tDl,
		SingleOnline:   tOn,
		MTCDOnline:     c1.OnlineTime,
		MTSDOnline:     s1.OnlineTime,
		CMFSDOnline:    f1.OnlineTime,
	}
	for _, v := range []float64{res.MTCDOnline, res.MTSDOnline, res.CMFSDOnline} {
		if e := math.Abs(v-tOn) / tOn; e > res.MaxRelErr {
			res.MaxRelErr = e
		}
	}
	return res, nil
}

// Table renders the degeneracy check.
func (r *ValidationResult) Table() *table.Table {
	tb := table.New("Model validation: K=1 degeneracy vs Qiu–Srikant closed form",
		"quantity", "value")
	tb.MustAddRow("closed-form download time T", table.Fmt(r.SingleDownload))
	tb.MustAddRow("closed-form online time T+1/γ", table.Fmt(r.SingleOnline))
	tb.MustAddRow("MTCD online time (K=1)", table.Fmt(r.MTCDOnline))
	tb.MustAddRow("MTSD online time (K=1)", table.Fmt(r.MTSDOnline))
	tb.MustAddRow("CMFSD online time (K=1)", table.Fmt(r.CMFSDOnline))
	tb.MustAddRow("max relative error", fmt.Sprintf("%.2e", r.MaxRelErr))
	return tb
}

// EtaAblationResult replays Figure 2's MTCD curve for several sharing
// efficiencies η (the paper argues for η = 0.5 against [7]'s η ≈ 1).
type EtaAblationResult struct {
	Config Config
	Etas   []float64
	PGrid  []float64
	// Online[e][i] is the MTCD average online time per file with
	// η = Etas[e] at p = PGrid[i].
	Online [][]float64
}

// EtaAblation runs the η sensitivity study (E10): an η × p Sweep of MTCD
// with cfg.Options.
func EtaAblation(ctx context.Context, cfg Config, etas, pGrid []float64) (*EtaAblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	online, err := onlineGrid(ctx, cfg, scheme.MTCD, 0,
		runner.Dim{Name: "eta", Values: etas}, runner.Dim{Name: "p", Values: pGrid})
	if err != nil {
		return nil, err
	}
	res := &EtaAblationResult{Config: cfg, Etas: etas, PGrid: pGrid}
	for e := range etas {
		res.Online = append(res.Online, online[e*len(pGrid):(e+1)*len(pGrid)])
	}
	return res, nil
}

// Table renders the η ablation with one row per p.
func (r *EtaAblationResult) Table() *table.Table {
	cols := []string{"p"}
	for _, eta := range r.Etas {
		cols = append(cols, fmt.Sprintf("MTCD η=%.2f", eta))
	}
	tb := table.New("Ablation: MTCD average online time per file vs η", cols...)
	for i, p := range r.PGrid {
		cells := []string{fmt.Sprintf("%.2f", p)}
		for e := range r.Etas {
			cells = append(cells, table.Fmt(r.Online[e][i]))
		}
		tb.MustAddRow(cells...)
	}
	return tb
}

// StabilityRow is the spectral abscissa of one model's fixed point.
type StabilityRow struct {
	Model    string
	Abscissa float64
	Stable   bool
}

// StabilityTable linearizes the MTCD and CMFSD fixed points at the paper's
// operating points and reports the spectral abscissas (E11).
func StabilityTable(cfg Config) ([]StabilityRow, *table.Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	var rows []StabilityRow
	add := func(name string, rep *fluid.StabilityReport) {
		rows = append(rows, StabilityRow{Model: name, Abscissa: rep.Abscissa, Stable: rep.Stable})
	}
	for _, p := range []float64{0.1, 0.9} {
		corr, err := cfg.corr(p)
		if err != nil {
			return nil, nil, err
		}
		mc, err := mtcd.New(cfg.Params, corr)
		if err != nil {
			return nil, nil, err
		}
		x, y, err := mc.SteadyStatePopulations()
		if err != nil {
			return nil, nil, err
		}
		state := append(append([]float64{}, x...), y...)
		rep, err := fluid.Stability(mc.NewODE(), state)
		if err != nil {
			return nil, nil, err
		}
		add(fmt.Sprintf("MTCD/MFCD Eq.(1) p=%.1f", p), rep)
		for _, rho := range []float64{0.1, 0.9} {
			mf, err := cmfsd.New(cfg.Params, corr, rho)
			if err != nil {
				return nil, nil, err
			}
			ss, err := mf.SteadyState(ode.SteadyStateOptions{})
			if err != nil {
				return nil, nil, err
			}
			rep, err := mf.Stability(ss)
			if err != nil {
				return nil, nil, err
			}
			add(fmt.Sprintf("CMFSD Eq.(5) p=%.1f ρ=%.1f", p, rho), rep)
		}
	}
	tb := table.New("Stability: spectral abscissas of the fluid fixed points",
		"model", "abscissa", "stable")
	for _, r := range rows {
		tb.MustAddRow(r.Model, fmt.Sprintf("%.5f", r.Abscissa), fmt.Sprintf("%v", r.Stable))
	}
	return rows, tb, nil
}

// CrossoverResult reports, per class, the correlation threshold p* above
// which MTCD's per-file online time exceeds MTSD's (classes ≥ 2 benefit
// from concurrency only below p*).
type CrossoverResult struct {
	Config Config
	// PStar[i-1] is the threshold for class i; NaN when no crossover
	// exists in (0, 1).
	PStar []float64
}

// Crossover locates the per-class MTCD/MTSD break-even correlation with
// Brent's method on A(p) − T − (1/γ)(1 − 1/i) (E2 follow-up analysis).
func Crossover(cfg Config) (*CrossoverResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tSingle, err := cfg.SingleDownloadTime()
	if err != nil {
		return nil, err
	}
	res := &CrossoverResult{Config: cfg, PStar: make([]float64, cfg.K)}
	for i := 1; i <= cfg.K; i++ {
		gap := (1 / cfg.Gamma) * (1 - 1/float64(i))
		f := func(p float64) float64 {
			corr, err := cfg.corr(p)
			if err != nil {
				return math.NaN()
			}
			m, err := mtcd.New(cfg.Params, corr)
			if err != nil {
				return math.NaN()
			}
			a, err := m.SharedFactor()
			if err != nil {
				return math.NaN()
			}
			return a - tSingle - gap
		}
		lo, hi, ok := rootfind.FindBracket(f, 1e-6, 1, 200)
		if !ok {
			res.PStar[i-1] = math.NaN()
			continue
		}
		p, err := rootfind.Brent(f, lo, hi, 1e-10)
		if err != nil {
			return nil, fmt.Errorf("experiments: crossover class %d: %w", i, err)
		}
		res.PStar[i-1] = p
	}
	return res, nil
}

// Table renders the crossover thresholds.
func (r *CrossoverResult) Table() *table.Table {
	tb := table.New("Crossover: correlation p* above which MTCD is worse than MTSD per class",
		"class", "p*")
	for i, p := range r.PStar {
		cell := "none in (0,1)"
		if !math.IsNaN(p) {
			cell = fmt.Sprintf("%.4f", p)
		}
		tb.MustAddRow(fmt.Sprintf("%d", i+1), cell)
	}
	return tb
}
