package cmfsd

import (
	"math"
	"testing"
	"testing/quick"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/numeric/ode"
)

// TestMassBalanceIdentity checks that Eq. (5) preserves the global mass
// balance d/dt(ΣX + ΣY) = Σλ_i − γ·ΣY at arbitrary (positive) states, not
// just at the fixed point: the internal flux terms must telescope exactly.
func TestMassBalanceIdentity(t *testing.T) {
	m := model(t, 6, 0.8, 0.3)
	f := func(seed uint8) bool {
		state := make([]float64, m.Dim())
		v := uint32(seed) + 1
		for i := range state {
			// Cheap deterministic pseudo-random positives.
			v = v*1664525 + 1013904223
			state[i] = float64(v%1000)/100 + 0.01
		}
		dst := make([]float64, m.Dim())
		m.RHS(0, state, dst)
		var dTotal, yTotal, lambdaTotal float64
		for _, d := range dst {
			dTotal += d
		}
		for i := 1; i <= 6; i++ {
			yTotal += state[m.YIndex(i)]
			lambdaTotal += m.Corr.UserRate(i)
		}
		want := lambdaTotal - m.Gamma*yTotal
		return math.Abs(dTotal-want) < 1e-9*(1+math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestStageFluxEqualAtSteadyState checks the pipeline property: at the
// fixed point the completion flux of every stage j of class i equals the
// class arrival rate λ_i.
func TestStageFluxEqualAtSteadyState(t *testing.T) {
	m := model(t, 8, 0.7, 0.2)
	ss, err := m.SteadyState(ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the flux terms exactly as RHS does, with the paper's
	// P(i,j) = 1 if i = 1 or j = 1, else ρ.
	pij := func(i, j int) float64 {
		if i == 1 || j == 1 {
			return 1
		}
		return m.Rho
	}
	totalX, virtMass, seedMass := 0.0, 0.0, 0.0
	for i := 1; i <= 8; i++ {
		for j := 1; j <= i; j++ {
			x := ss[m.XIndex(i, j)]
			totalX += x
			virtMass += (1 - pij(i, j)) * x
		}
		seedMass += ss[m.YIndex(i)]
	}
	perCapita := m.Mu * (virtMass + seedMass) / totalX
	for i := 1; i <= 8; i++ {
		lambda := m.Corr.UserRate(i)
		if lambda < 1e-12 {
			continue
		}
		for j := 1; j <= i; j++ {
			x := ss[m.XIndex(i, j)]
			flux := m.Mu*m.Eta*pij(i, j)*x + x*perCapita
			if math.Abs(flux-lambda) > 1e-6+1e-4*lambda {
				t.Fatalf("class %d stage %d flux %v, want λ=%v", i, j, flux, lambda)
			}
		}
	}
}

// TestDOPRIAgreesWithRK4 integrates Eq. (5) with the adaptive RK45 and
// checks it lands on the same steady state as the fixed-step RK4
// relaxation.
func TestDOPRIAgreesWithRK4(t *testing.T) {
	m := model(t, 6, 0.9, 0.1)
	ssRK4, err := m.SteadyState(ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	state := m.InitialState()
	if _, err := ode.DOPRI(m.RHS, 0, 20000, state, ode.DOPRIOptions{RTol: 1e-9, ATol: 1e-11}); err != nil {
		t.Fatal(err)
	}
	for i := range state {
		if math.Abs(state[i]-ssRK4[i]) > 1e-4*(1+ssRK4[i]) {
			t.Fatalf("component %d: DOPRI %v vs RK4 %v", i, state[i], ssRK4[i])
		}
	}
}

// TestOnlineTimeDominatesSeedTime checks the structural lower bound: a
// class-i peer's online time is at least the seeding time 1/γ plus i times
// the fastest conceivable per-file download (service can't exceed the
// whole swarm's seed-like pool, but per-file time is at least 1/(μη+μ·...);
// we use the loose bound online > 1/γ).
func TestOnlineTimeDominatesSeedTime(t *testing.T) {
	for _, rho := range []float64{0, 0.5, 1} {
		m := model(t, 10, 0.9, rho)
		res, err := m.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range res.Classes {
			if c.EntryRate <= 0 {
				continue
			}
			if c.OnlineTime <= 1/m.Gamma {
				t.Fatalf("ρ=%v class %d online %v not above seeding floor %v",
					rho, c.Class, c.OnlineTime, 1/m.Gamma)
			}
			if c.DownloadTime <= 0 {
				t.Fatalf("ρ=%v class %d download %v", rho, c.Class, c.DownloadTime)
			}
		}
	}
}

// TestRhoMonotonicityPerClass strengthens the figure-level check: every
// class (not just the average) weakly prefers smaller ρ at high
// correlation.
func TestRhoMonotonicityPerClass(t *testing.T) {
	corr, err := correlation.New(10, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev []float64
	for _, rho := range []float64{0, 0.5, 1} {
		m, err := New(fluid.PaperParams, corr, rho)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		var cur []float64
		for _, c := range res.Classes {
			cur = append(cur, c.OnlineTime)
		}
		if prev != nil {
			for i := range cur {
				if res.Classes[i].EntryRate <= 0 {
					continue
				}
				if cur[i] < prev[i]-1e-3 {
					t.Fatalf("class %d online time decreased from ρ=%v: %v -> %v",
						i+1, rho, prev[i], cur[i])
				}
			}
		}
		prev = cur
	}
}

// TestHybridMatchesRelaxed cross-validates the Newton-polished steady
// state against the pure RK4 relaxation.
func TestHybridMatchesRelaxed(t *testing.T) {
	for _, rho := range []float64{0, 0.4, 1} {
		m := model(t, 8, 0.8, rho)
		fast, err := m.SteadyState(ode.SteadyStateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := m.SteadyStateRelaxed(ode.SteadyStateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-5*(1+slow[i]) {
				t.Fatalf("ρ=%v component %d: hybrid %v vs relaxed %v", rho, i, fast[i], slow[i])
			}
		}
		// The polished answer must be at least as good a fixed point.
		if fluid.Residual(m, fast) > 1e-9 {
			t.Fatalf("ρ=%v hybrid residual %v", rho, fluid.Residual(m, fast))
		}
	}
}
