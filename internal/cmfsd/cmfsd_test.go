package cmfsd

import (
	"math"
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/mtcd"
	"mfdl/internal/numeric/ode"
)

// evalMFCD evaluates the MFCD baseline at the paper's parameters: in the
// fluid model MFCD is MTCD (Section 3.4).
func evalMFCD(t testing.TB, corr *correlation.Model) *metrics.SchemeResult {
	t.Helper()
	m, err := mtcd.New(fluid.PaperParams, corr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func model(t testing.TB, k int, p, rho float64) *Model {
	t.Helper()
	corr, err := correlation.New(k, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(fluid.PaperParams, corr, rho)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	corr, _ := correlation.New(10, 0.5, 1)
	if _, err := New(fluid.PaperParams, nil, 0.5); err == nil {
		t.Fatal("nil correlation accepted")
	}
	if _, err := New(fluid.PaperParams, corr, -0.1); err == nil {
		t.Fatal("ρ<0 accepted")
	}
	if _, err := New(fluid.PaperParams, corr, 1.1); err == nil {
		t.Fatal("ρ>1 accepted")
	}
	if _, err := New(fluid.PaperParams, corr, math.NaN()); err == nil {
		t.Fatal("ρ=NaN accepted")
	}
	zeroP, _ := correlation.New(10, 0, 1)
	if _, err := New(fluid.PaperParams, zeroP, 0.5); err == nil {
		t.Fatal("p=0 accepted")
	}
}

func TestPFunction(t *testing.T) {
	// P(i,j) is 1 for i = 1 or j = 1 and ρ after. With one non-empty
	// downloader group (i,j) and no seeds, the group completes at
	// μηP·x + x·μ(1−P)x/x, which RHS hands on as the next stage's (or the
	// seeds') inflow.
	const rho, x = 0.3, 2.0
	m := model(t, 5, 0.5, rho)
	for _, c := range []struct {
		i, j int
		p    float64
	}{{1, 1, 1}, {3, 1, 1}, {3, 2, rho}, {2, 2, rho}} {
		s := make([]float64, m.Dim())
		s[m.XIndex(c.i, c.j)] = x
		dst := make([]float64, m.Dim())
		m.RHS(0, s, dst)
		next := m.YIndex(c.i)
		if c.j < c.i {
			next = m.XIndex(c.i, c.j+1)
		}
		perCapita := m.Mu * ((1 - c.p) * x) / x
		if got, want := dst[next], m.Mu*m.Eta*c.p*x+x*perCapita; got != want {
			t.Fatalf("P(%d,%d): outflow %v, want %v (P = %v)", c.i, c.j, got, want, c.p)
		}
	}
}

func TestIndexing(t *testing.T) {
	m := model(t, 4, 0.5, 0.5)
	if m.Dim() != 4*5/2+4 {
		t.Fatalf("dim = %d", m.Dim())
	}
	seen := map[int]bool{}
	for i := 1; i <= 4; i++ {
		for j := 1; j <= i; j++ {
			idx := m.XIndex(i, j)
			if idx < 0 || idx >= 10 || seen[idx] {
				t.Fatalf("XIndex(%d,%d) = %d invalid/duplicate", i, j, idx)
			}
			seen[idx] = true
		}
	}
	for i := 1; i <= 4; i++ {
		idx := m.YIndex(i)
		if idx < 10 || idx >= 14 || seen[idx] {
			t.Fatalf("YIndex(%d) = %d invalid/duplicate", i, idx)
		}
		seen[idx] = true
	}
}

func TestIndexPanics(t *testing.T) {
	m := model(t, 4, 0.5, 0.5)
	for _, fn := range []func(){
		func() { m.XIndex(2, 3) }, // j > i
		func() { m.XIndex(5, 1) }, // i > K
		func() { m.XIndex(1, 0) }, // j < 1
		func() { m.YIndex(0) },
		func() { m.YIndex(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic for out-of-range index")
				}
			}()
			fn()
		}()
	}
}

func TestK1DegeneratesToSingleTorrent(t *testing.T) {
	// With one file, CMFSD is the plain single torrent: T = 60, online 80.
	m := model(t, 1, 0.9, 0.5)
	res, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	c, _ := res.Class(1)
	if math.Abs(c.DownloadTime-60) > 0.01 {
		t.Fatalf("K=1 download time %v, want 60", c.DownloadTime)
	}
	if math.Abs(c.OnlineTime-80) > 0.01 {
		t.Fatalf("K=1 online time %v, want 80", c.OnlineTime)
	}
}

func TestK2FullCorrelationRho0HandSolved(t *testing.T) {
	// Hand-solved steady state for K=2, p=1, ρ=0, λ₀=1 (see DESIGN.md
	// notes): x^{2,1} ≈ 37.91, x^{2,2} ≈ 61.05, y² = 20.
	m := model(t, 2, 1, 0)
	ss, err := m.SteadyState(ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x21 := ss[m.XIndex(2, 1)]
	x22 := ss[m.XIndex(2, 2)]
	y2 := ss[m.YIndex(2)]
	// Exact root: x22 = (−70 + √36900)/2, x21 = 0.02·x22² − 0.6·x22.
	wantX22 := (-70 + math.Sqrt(36900)) / 2
	wantX21 := 0.02*wantX22*wantX22 - 0.6*wantX22
	if math.Abs(x22-wantX22) > 1e-3 {
		t.Fatalf("x^{2,2} = %v, want %v", x22, wantX22)
	}
	if math.Abs(x21-wantX21) > 1e-3 {
		t.Fatalf("x^{2,1} = %v, want %v", x21, wantX21)
	}
	if math.Abs(y2-20) > 1e-3 {
		t.Fatalf("y² = %v, want 20", y2)
	}
}

func TestRho1EquivalentToMFCD(t *testing.T) {
	// Paper Section 4.2.2: with ρ = 1 the system performs as MFCD.
	for _, p := range []float64{0.3, 0.9, 1.0} {
		m := model(t, 10, p, 1)
		res, err := m.Evaluate()
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		mfcd := evalMFCD(t, m.Corr)
		got := res.AvgOnlinePerFile()
		want := mfcd.AvgOnlinePerFile()
		if math.Abs(got-want) > 0.02*want {
			t.Fatalf("p=%v: CMFSD(ρ=1) avg %v, MFCD %v", p, got, want)
		}
	}
}

func TestSeedFlowBalance(t *testing.T) {
	// At the fixed point γ·y_i = λ_i for every class with arrivals.
	m := model(t, 10, 0.7, 0.2)
	ss, err := m.SteadyState(ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		rate := m.Corr.UserRate(i)
		got := m.Gamma * ss[m.YIndex(i)]
		if math.Abs(got-rate) > 1e-6+1e-4*rate {
			t.Fatalf("class %d: γ·y = %v, λ = %v", i, got, rate)
		}
	}
}

func TestRho0BeatsMFCDAtHighCorrelation(t *testing.T) {
	// Figure 4(a) headline: at high p, ρ=0 improves markedly over MFCD.
	m := model(t, 10, 0.9, 0)
	res, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	mfcd := evalMFCD(t, m.Corr)
	if res.AvgOnlinePerFile() >= 0.8*mfcd.AvgOnlinePerFile() {
		t.Fatalf("ρ=0 avg %v not clearly better than MFCD %v",
			res.AvgOnlinePerFile(), mfcd.AvgOnlinePerFile())
	}
}

func TestAvgOnlineMonotoneInRho(t *testing.T) {
	// Figure 4(a): smaller ρ (more collaboration) is never worse.
	prev := -math.MaxFloat64
	for _, rho := range []float64{0, 0.25, 0.5, 0.75, 1} {
		m := model(t, 10, 0.9, rho)
		res, err := m.Evaluate()
		if err != nil {
			t.Fatalf("ρ=%v: %v", rho, err)
		}
		avg := res.AvgOnlinePerFile()
		if avg < prev-1e-6 {
			t.Fatalf("avg online per file not monotone at ρ=%v: %v < %v", rho, avg, prev)
		}
		prev = avg
	}
}

func TestUnfairnessAtLowCorrelationHighRho(t *testing.T) {
	// Figure 4(c): at p=0.1, class-1 peers download faster per file than
	// class-10 peers, and the gap widens with ρ large.
	m := model(t, 10, 0.1, 0.9)
	res, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := res.Class(1)
	c10, _ := res.Class(10)
	if c1.DownloadPerFile() >= c10.DownloadPerFile() {
		t.Fatalf("expected class-1 advantage: class1 %v, class10 %v",
			c1.DownloadPerFile(), c10.DownloadPerFile())
	}
}

func TestStabilityAtOperatingPoint(t *testing.T) {
	m := model(t, 10, 0.9, 0.1)
	ss, err := m.SteadyState(ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Stability(ss)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stable {
		t.Fatalf("CMFSD fixed point unstable: abscissa %v", rep.Abscissa)
	}
}

func TestMetricsFromStateRejectsBadDim(t *testing.T) {
	m := model(t, 5, 0.5, 0.5)
	if _, err := m.MetricsFromState(make([]float64, 3)); err == nil {
		t.Fatal("bad dimension accepted")
	}
}

func TestLambda0InvarianceOfTimes(t *testing.T) {
	// The model is homogeneous of degree 1 in populations: scaling λ₀
	// leaves all per-class times unchanged.
	corrA, _ := correlation.New(6, 0.8, 1)
	corrB, _ := correlation.New(6, 0.8, 5)
	ma, _ := New(fluid.PaperParams, corrA, 0.3)
	mb, _ := New(fluid.PaperParams, corrB, 0.3)
	ra, err := ma.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := mb.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		ca, _ := ra.Class(i)
		cb, _ := rb.Class(i)
		if ca.EntryRate == 0 {
			continue
		}
		if math.Abs(ca.DownloadTime-cb.DownloadTime) > 1e-3*(1+ca.DownloadTime) {
			t.Fatalf("class %d time changed with λ₀: %v vs %v", i, ca.DownloadTime, cb.DownloadTime)
		}
	}
}

func TestNonNegativityAlongTrajectory(t *testing.T) {
	m := model(t, 6, 0.8, 0.2)
	samples, err := ode.Trajectory(ode.NewRK4(m.Dim()), m.RHS, 0, 2000, m.InitialState(), 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		for idx, v := range s.X {
			if v < -1e-6 {
				t.Fatalf("state %d negative (%v) at t=%v", idx, v, s.T)
			}
		}
	}
}

func BenchmarkSteadyStateK10(b *testing.B) {
	corr, _ := correlation.New(10, 0.9, 1)
	for i := 0; i < b.N; i++ {
		m, _ := New(fluid.PaperParams, corr, 0.1)
		if _, err := m.SteadyState(ode.SteadyStateOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
