package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"mfdl/internal/runner"
)

func TestConfigValidate(t *testing.T) {
	if err := PaperConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := PaperConfig
	bad.K = 0
	if bad.Validate() == nil {
		t.Fatal("K=0 accepted")
	}
	bad = PaperConfig
	bad.Lambda0 = 0
	if bad.Validate() == nil {
		t.Fatal("λ₀=0 accepted")
	}
}

func TestFig2Shape(t *testing.T) {
	res, err := Fig2(context.Background(), PaperConfig, runner.Linspace(0, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 11 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for i, pt := range res.Points {
		// MTSD is flat at 80 for the paper parameters.
		if math.Abs(pt.MTSDOnline-80) > 1e-9 {
			t.Fatalf("MTSD at p=%v: %v, want 80", pt.P, pt.MTSDOnline)
		}
		// MTCD starts at the MTSD value and grows monotonically to 98.
		if pt.MTCDOnline < 80-1e-9 {
			t.Fatalf("MTCD below MTSD at p=%v", pt.P)
		}
		if i > 0 && pt.MTCDOnline < res.Points[i-1].MTCDOnline-1e-9 {
			t.Fatalf("MTCD not monotone at p=%v", pt.P)
		}
	}
	last := res.Points[len(res.Points)-1]
	if math.Abs(last.MTCDOnline-98) > 1e-6 {
		t.Fatalf("MTCD at p=1: %v, want 98", last.MTCDOnline)
	}
	out := res.Table().String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "98") {
		t.Fatalf("table rendering wrong:\n%s", out)
	}
}

func TestFig3Shapes(t *testing.T) {
	// p = 1.0: MTCD uniformly worse than MTSD in both metrics.
	hi, err := Fig3(PaperConfig, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range hi.Rows {
		if row.MTCDDownload <= row.MTSDDownload {
			t.Fatalf("p=1 class %d: MTCD download %v not worse than MTSD %v",
				row.Class, row.MTCDDownload, row.MTSDDownload)
		}
		if row.MTCDOnline <= row.MTSDOnline {
			t.Fatalf("p=1 class %d: MTCD online %v not worse than MTSD %v",
				row.Class, row.MTCDOnline, row.MTSDOnline)
		}
	}
	// p = 0.1: class-1 peers do worse under MTCD, multi-file classes do
	// better (paper's observation).
	lo, err := Fig3(PaperConfig, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Rows[0].MTCDOnline <= lo.Rows[0].MTSDOnline {
		t.Fatal("p=0.1 class 1 should be worse under MTCD")
	}
	last := lo.Rows[len(lo.Rows)-1]
	if last.MTCDOnline >= last.MTSDOnline {
		t.Fatal("p=0.1 class 10 should be better under MTCD")
	}
	// MTCD online per file decreases with class (Figure 3's slope).
	for i := 1; i < len(lo.Rows); i++ {
		if lo.Rows[i].MTCDOnline >= lo.Rows[i-1].MTCDOnline {
			t.Fatalf("MTCD online per file not decreasing at class %d", i+1)
		}
	}
	if !strings.Contains(lo.Table().String(), "p=0.1") {
		t.Fatal("table title missing correlation")
	}
}

func TestFig4ASmallGrid(t *testing.T) {
	pGrid := []float64{0.3, 0.9}
	rhoGrid := []float64{0, 0.5, 1}
	res, err := Fig4A(context.Background(), PaperConfig, pGrid, rhoGrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Online) != 2 || len(res.Online[0]) != 3 {
		t.Fatalf("surface shape %dx%d", len(res.Online), len(res.Online[0]))
	}
	for i := range pGrid {
		// Monotone in ρ (less collaboration is never better).
		if !(res.Online[i][0] <= res.Online[i][1]+1e-6 && res.Online[i][1] <= res.Online[i][2]+1e-6) {
			t.Fatalf("p=%v row not monotone in ρ: %v", pGrid[i], res.Online[i])
		}
	}
	// Improvement at ρ=0 is larger at higher correlation.
	gainLow := res.Online[0][2] - res.Online[0][0]
	gainHigh := res.Online[1][2] - res.Online[1][0]
	if gainHigh <= gainLow {
		t.Fatalf("collaboration gain should grow with p: %v vs %v", gainLow, gainHigh)
	}
	if !strings.Contains(res.Table().String(), "Figure 4(a)") {
		t.Fatal("table title wrong")
	}
}

func TestFig4BCShapes(t *testing.T) {
	// Panel (b): p = 0.9 — CMFSD ρ=0.1 beats MFCD for every class.
	b, err := Fig4BC(PaperConfig, 0.9, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range b.Rows {
		if row.OnlineLowRho >= row.OnlineMFCD {
			t.Fatalf("p=0.9 class %d: ρ=0.1 online %v not better than MFCD %v",
				row.Class, row.OnlineLowRho, row.OnlineMFCD)
		}
	}
	// Panel (c): p = 0.1 — unfairness: class 1 downloads faster per file
	// than class 10 under large ρ.
	c, err := Fig4BC(PaperConfig, 0.1, 0.1, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	first, last := c.Rows[0], c.Rows[len(c.Rows)-1]
	if first.DownloadHighRho >= last.DownloadHighRho {
		t.Fatalf("p=0.1 ρ=0.9: class-1 download %v should beat class-10 %v",
			first.DownloadHighRho, last.DownloadHighRho)
	}
	if !strings.Contains(c.Table().String(), "MFCD") {
		t.Fatal("table missing MFCD column")
	}
}

func TestValidateDegeneracy(t *testing.T) {
	res, err := Validate(PaperConfig)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SingleOnline-80) > 1e-9 {
		t.Fatalf("closed-form online %v, want 80", res.SingleOnline)
	}
	if res.MaxRelErr > 1e-3 {
		t.Fatalf("degeneracy error %v too large", res.MaxRelErr)
	}
	if !strings.Contains(res.Table().String(), "Qiu") {
		t.Fatal("table title wrong")
	}
}

func TestEtaAblation(t *testing.T) {
	res, err := EtaAblation(context.Background(), PaperConfig, []float64{0.25, 0.5, 1.0}, []float64{0.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Larger η means faster downloads: online time decreases with η.
	for pi := range res.PGrid {
		for e := 1; e < len(res.Etas); e++ {
			if res.Online[e][pi] >= res.Online[e-1][pi] {
				t.Fatalf("η ablation not decreasing at p=%v", res.PGrid[pi])
			}
		}
	}
	if !strings.Contains(res.Table().String(), "η=0.25") {
		t.Fatal("table missing η column")
	}
}

func TestStabilityTable(t *testing.T) {
	rows, tb, err := StabilityTable(PaperConfig)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if !r.Stable {
			t.Fatalf("%s reported unstable (abscissa %v)", r.Model, r.Abscissa)
		}
	}
	if !strings.Contains(tb.String(), "abscissa") {
		t.Fatal("table header wrong")
	}
}

func TestCrossover(t *testing.T) {
	res, err := Crossover(PaperConfig)
	if err != nil {
		t.Fatal(err)
	}
	// Class 1 never benefits from concurrency: no crossover.
	if !math.IsNaN(res.PStar[0]) {
		t.Fatalf("class 1 crossover %v, want none", res.PStar[0])
	}
	// Classes ≥ 2 cross somewhere inside (0,1), at increasing p.
	prev := 0.0
	for i := 2; i <= PaperConfig.K; i++ {
		p := res.PStar[i-1]
		if math.IsNaN(p) || p <= 0 || p >= 1 {
			t.Fatalf("class %d crossover %v outside (0,1)", i, p)
		}
		if p < prev {
			t.Fatalf("crossover not increasing at class %d", i)
		}
		prev = p
	}
	if !strings.Contains(res.Table().String(), "none in (0,1)") {
		t.Fatal("table missing class-1 row")
	}
}
