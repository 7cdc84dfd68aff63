package fluid

import (
	"math"
	"testing"
	"testing/quick"

	"mfdl/internal/numeric/linalg"
	"mfdl/internal/numeric/ode"
)

func TestParamsValidate(t *testing.T) {
	if err := PaperParams.Validate(); err != nil {
		t.Fatalf("paper params invalid: %v", err)
	}
	bad := []Params{
		{Mu: 0, Eta: 0.5, Gamma: 0.05},
		{Mu: 0.02, Eta: 0, Gamma: 0.05},
		{Mu: 0.02, Eta: 1.5, Gamma: 0.05},
		{Mu: 0.02, Eta: 0.5, Gamma: 0},
		{Mu: math.NaN(), Eta: 0.5, Gamma: 0.05},
		{Mu: 0.02, Eta: math.NaN(), Gamma: 0.05},
		{Mu: 0.02, Eta: 0.5, Gamma: math.NaN()},
		{Mu: math.Inf(1), Eta: 0.5, Gamma: 0.05},
		{Mu: 0.02, Eta: 0.5, Gamma: math.Inf(1)},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted", i)
		}
	}
}

func TestUploadConstrained(t *testing.T) {
	if !PaperParams.UploadConstrained() {
		t.Fatal("paper params should be upload constrained (γ > μ)")
	}
	p := Params{Mu: 0.1, Eta: 0.5, Gamma: 0.05}
	if p.UploadConstrained() {
		t.Fatal("γ < μ misreported as upload constrained")
	}
}

func TestSingleTorrentValidation(t *testing.T) {
	if _, err := NewSingleTorrent(PaperParams, 0); err == nil {
		t.Fatal("λ=0 accepted")
	}
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.C = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative c accepted")
	}
	m.C = 0
	m.Theta = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative θ accepted")
	}
}

func TestSingleTorrentClosedForm(t *testing.T) {
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	tDl, err := m.DownloadTime()
	if err != nil {
		t.Fatal(err)
	}
	// (0.05-0.02)/(0.05·0.02·0.5) = 60.
	if math.Abs(tDl-60) > 1e-12 {
		t.Fatalf("download time %v, want 60", tDl)
	}
	tOn, err := m.OnlineTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tOn-80) > 1e-12 {
		t.Fatalf("online time %v, want 80", tOn)
	}
}

func TestSingleTorrentSteadyStateMatchesClosedForm(t *testing.T) {
	m, err := NewSingleTorrent(PaperParams, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SteadyState(m, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, y, err := m.SteadyStateClosed()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-x) > 1e-6*x || math.Abs(got[1]-y) > 1e-6*y {
		t.Fatalf("steady state %v, want (%v, %v)", got, x, y)
	}
}

func TestSingleTorrentLittleLaw(t *testing.T) {
	// x*/λ must equal the closed-form download time.
	m, _ := NewSingleTorrent(PaperParams, 3)
	x, _, err := m.SteadyStateClosed()
	if err != nil {
		t.Fatal(err)
	}
	tDl, _ := m.DownloadTime()
	if math.Abs(x/m.Lambda-tDl) > 1e-12 {
		t.Fatalf("Little's law broken: x/λ = %v, T = %v", x/m.Lambda, tDl)
	}
}

func TestClosedFormRequiresUploadConstraint(t *testing.T) {
	m := &SingleTorrent{Params: Params{Mu: 0.1, Eta: 0.5, Gamma: 0.05}, Lambda: 1}
	if _, err := m.DownloadTime(); err != ErrNotUploadConstrained {
		t.Fatalf("err = %v, want ErrNotUploadConstrained", err)
	}
	if _, _, err := m.SteadyStateClosed(); err != ErrNotUploadConstrained {
		t.Fatalf("err = %v", err)
	}
	if _, err := m.OnlineTime(); err == nil {
		t.Fatal("online time with γ<μ accepted")
	}
}

func TestLambdaHomogeneity(t *testing.T) {
	// Populations scale linearly with λ; times are invariant.
	f := func(scaleRaw uint8) bool {
		scale := float64(scaleRaw%50) + 1
		a, err1 := NewSingleTorrent(PaperParams, 1)
		b, err2 := NewSingleTorrent(PaperParams, scale)
		if err1 != nil || err2 != nil {
			return false
		}
		xa, ya, _ := a.SteadyStateClosed()
		xb, yb, _ := b.SteadyStateClosed()
		ta, _ := a.DownloadTime()
		tb, _ := b.DownloadTime()
		return math.Abs(xb-scale*xa) < 1e-9 &&
			math.Abs(yb-scale*ya) < 1e-9 && ta == tb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDownloadConstrainedRegime(t *testing.T) {
	// With a tiny download bandwidth c the served rate is c·x, so the
	// steady state has x = λ/(c+θ)... with θ=0: c·x = γ·y and λ = c·x.
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.C = 0.001 // far below μη
	got, err := SteadyState(m, ode.SteadyStateOptions{MaxTime: 5e6})
	if err != nil {
		t.Fatal(err)
	}
	// At the fixed point: served = λ, so c·x = λ → x = 1000, y = λ/γ = 20.
	if math.Abs(got[0]-1000) > 1 || math.Abs(got[1]-20) > 0.1 {
		t.Fatalf("download-constrained steady state %v, want ≈(1000, 20)", got)
	}
}

func TestAbortRateReducesCompletions(t *testing.T) {
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Theta = 0.01
	got, err := SteadyState(m, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Completion rate γ·y must now be below λ (some peers abort).
	if compl := m.Gamma * got[1]; compl >= 1 {
		t.Fatalf("completions %v should be < λ = 1 with aborts", compl)
	}
}

func TestStabilityOfSingleTorrent(t *testing.T) {
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := SteadyState(m, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stability(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stable {
		t.Fatalf("single-torrent fixed point reported unstable: %+v", rep)
	}
	if len(rep.Eigenvalues) != 2 {
		t.Fatalf("want 2 eigenvalues, got %d", len(rep.Eigenvalues))
	}
}

func TestJacobianMatchesAnalytic(t *testing.T) {
	// For θ=0, unconstrained c, in the upload-limited branch:
	// J = [[-μη, -μ], [μη, μ-γ]].
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	j := linalg.NewMatrix(2, 2)
	ode.Jacobian(m.RHS, []float64{30, 20}, 1e-6, j, make([]float64, 2), make([]float64, 2), make([]float64, 2))
	want := [2][2]float64{
		{-m.Mu * m.Eta, -m.Mu},
		{m.Mu * m.Eta, m.Mu - m.Gamma},
	}
	for i := 0; i < 2; i++ {
		for k := 0; k < 2; k++ {
			if math.Abs(j.At(i, k)-want[i][k]) > 1e-6 {
				t.Fatalf("J[%d][%d] = %v, want %v", i, k, j.At(i, k), want[i][k])
			}
		}
	}
}

func TestResidualAtFixedPoint(t *testing.T) {
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, y, _ := m.SteadyStateClosed()
	if r := Residual(m, []float64{x, y}); r > 1e-12 {
		t.Fatalf("residual at analytic fixed point = %v", r)
	}
	if r := Residual(m, []float64{x, math.NaN()}); !math.IsNaN(r) {
		t.Fatalf("residual of a NaN state = %v, want NaN", r)
	}
}

func TestSteadyStateHybridMatchesRelaxation(t *testing.T) {
	m, err := NewSingleTorrent(PaperParams, 2)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, err := SteadyStateHybrid(m, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := SteadyState(m, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hybrid {
		if math.Abs(hybrid[i]-relaxed[i]) > 1e-6*(1+relaxed[i]) {
			t.Fatalf("component %d: hybrid %v vs relaxed %v", i, hybrid[i], relaxed[i])
		}
	}
	if r := Residual(m, hybrid); r > 1e-10 {
		t.Fatalf("hybrid residual %v", r)
	}
}

func TestSteadyStateHybridMultiClass(t *testing.T) {
	m, err := NewMultiClass(0.5, []Class{
		{Name: "a", Mu: 0.04, C: 4, Lambda: 1, Gamma: 0.05},
		{Name: "b", Mu: 0.01, C: 1, Lambda: 2, Gamma: 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := SteadyStateHybrid(m, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	n := len(m.Classes)
	for i, c := range m.Classes {
		if got := c.Gamma * ss[n+i]; math.Abs(got-c.Lambda) > 1e-6+1e-6*c.Lambda {
			t.Fatalf("class %d flow: γy = %v, λ = %v", i, got, c.Lambda)
		}
	}
}

// badDim violates the Model contract to exercise the error paths.
type badDim struct{ SingleTorrent }

func (b *badDim) InitialState() []float64 { return []float64{1} }

func TestSteadyStateRejectsDimensionMismatch(t *testing.T) {
	st, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := &badDim{*st}
	if _, err := SteadyState(bad, ode.SteadyStateOptions{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := SteadyStateHybrid(bad, ode.SteadyStateOptions{}); err == nil {
		t.Fatal("hybrid dimension mismatch accepted")
	}
}

func TestRHSClampsNegativeInputs(t *testing.T) {
	// The RHS must treat slightly-negative populations (integrator dust)
	// as zero rather than producing nonsense rates.
	m, err := NewSingleTorrent(PaperParams, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 2)
	m.RHS(0, []float64{-1e-9, -1e-9}, dst)
	if dst[0] != m.Lambda {
		t.Fatalf("dx at empty swarm = %v, want λ = %v", dst[0], m.Lambda)
	}
	if dst[1] != 0 {
		t.Fatalf("dy at empty swarm = %v, want 0", dst[1])
	}
}
