package cmfsd

import (
	"math"
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/numeric/ode"
)

func mixedModel(t testing.TB, p float64, groups []Group) *Mixed {
	t.Helper()
	corr, err := correlation.New(10, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMixed(fluid.PaperParams, corr, groups)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMixedValidation(t *testing.T) {
	corr, _ := correlation.New(10, 0.9, 1)
	if _, err := NewMixed(fluid.PaperParams, corr, nil); err == nil {
		t.Fatal("no groups accepted")
	}
	if _, err := NewMixed(fluid.PaperParams, corr, []Group{{Fraction: 0.5, Rho: 0}}); err == nil {
		t.Fatal("fractions not summing to 1 accepted")
	}
	if _, err := NewMixed(fluid.PaperParams, corr, []Group{{Fraction: 1, Rho: 2}}); err == nil {
		t.Fatal("ρ=2 accepted")
	}
	if _, err := NewMixed(fluid.PaperParams, nil, []Group{{Fraction: 1, Rho: 0}}); err == nil {
		t.Fatal("nil correlation accepted")
	}
	if _, err := NewMixed(fluid.PaperParams, corr, []Group{{Fraction: 1, Rho: math.NaN()}}); err == nil {
		t.Fatal("ρ=NaN accepted")
	}
	if _, err := NewMixed(fluid.PaperParams, corr, []Group{{Fraction: math.NaN(), Rho: 0}}); err == nil {
		t.Fatal("fraction NaN accepted")
	}
}

func TestMixedSingleGroupMatchesPlainModel(t *testing.T) {
	// One group with ρ = 0.3 must reproduce the plain CMFSD model.
	mixed := mixedModel(t, 0.9, []Group{{Name: "all", Fraction: 1, Rho: 0.3}})
	plain := model(t, 10, 0.9, 0.3)
	mr, err := mixed.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	pr, err := plain.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	got := mr.AvgOnlinePerFile()
	want := pr.AvgOnlinePerFile()
	if math.Abs(got-want) > 1e-3*want {
		t.Fatalf("single-group mixed %v != plain %v", got, want)
	}
}

func TestMixedIndexingDisjoint(t *testing.T) {
	m := mixedModel(t, 0.9, []Group{
		{Name: "a", Fraction: 0.5, Rho: 0},
		{Name: "b", Fraction: 0.5, Rho: 1},
	})
	seen := map[int]bool{}
	for g := 0; g < 2; g++ {
		for i := 1; i <= 10; i++ {
			for j := 1; j <= i; j++ {
				idx := m.XIndex(g, i, j)
				if idx < 0 || idx >= m.Dim() || seen[idx] {
					t.Fatalf("XIndex(%d,%d,%d) = %d duplicate/out of range", g, i, j, idx)
				}
				seen[idx] = true
			}
			idx := m.YIndex(g, i)
			if idx < 0 || idx >= m.Dim() || seen[idx] {
				t.Fatalf("YIndex(%d,%d) = %d duplicate/out of range", g, i, idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != m.Dim() {
		t.Fatalf("indices cover %d of %d states", len(seen), m.Dim())
	}
}

func TestCheatingPaysIndividually(t *testing.T) {
	// With obedient majority at ρ = 0, a small cheating group free-rides:
	// its multi-file classes must download faster than obedient ones.
	m := mixedModel(t, 0.9, []Group{
		{Name: "obedient", Fraction: 0.9, Rho: 0},
		{Name: "cheater", Fraction: 0.1, Rho: 1},
	})
	res, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	ob, _ := res.Groups[0].Result.Class(10)
	ch, _ := res.Groups[1].Result.Class(10)
	if ch.DownloadTime >= ob.DownloadTime {
		t.Fatalf("cheaters (%v) should beat obedient (%v)", ch.DownloadTime, ob.DownloadTime)
	}
}

func TestCheatingHurtsEveryoneCollectively(t *testing.T) {
	// System-wide performance degrades monotonically with the cheater
	// fraction (the fluid counterpart of the Adapt sweep E8).
	prev := -math.MaxFloat64
	for _, cf := range []float64{0, 0.25, 0.5, 0.75, 1} {
		groups := []Group{
			{Name: "obedient", Fraction: 1 - cf, Rho: 0},
			{Name: "cheater", Fraction: cf, Rho: 1},
		}
		if cf == 0 {
			groups = groups[:1]
			groups[0].Fraction = 1
		}
		if cf == 1 {
			groups = groups[1:]
			groups[0].Fraction = 1
		}
		m := mixedModel(t, 0.9, groups)
		res, err := m.Evaluate()
		if err != nil {
			t.Fatalf("cf=%v: %v", cf, err)
		}
		avg := res.AvgOnlinePerFile()
		if avg < prev-1e-6 {
			t.Fatalf("system average not monotone at cheater fraction %v: %v < %v", cf, avg, prev)
		}
		prev = avg
	}
}

func TestAllCheatersEqualsMFCD(t *testing.T) {
	m := mixedModel(t, 0.9, []Group{{Name: "cheater", Fraction: 1, Rho: 1}})
	res, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	corr, _ := correlation.New(10, 0.9, 1)
	mfcd := evalMFCD(t, corr)
	got, want := res.AvgOnlinePerFile(), mfcd.AvgOnlinePerFile()
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("all-cheater torrent %v != MFCD %v", got, want)
	}
}

func TestMixedSeedFlowBalance(t *testing.T) {
	m := mixedModel(t, 0.7, []Group{
		{Name: "obedient", Fraction: 0.6, Rho: 0.2},
		{Name: "cheater", Fraction: 0.4, Rho: 1},
	})
	ss, err := fluid.SteadyState(m, ode.SteadyStateOptions{Step: 1, MaxTime: 5e6, Tol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	for g, grp := range m.Groups {
		for i := 1; i <= 10; i++ {
			rate := grp.Fraction * m.Corr.UserRate(i)
			got := m.Gamma * ss[m.YIndex(g, i)]
			if math.Abs(got-rate) > 1e-6+1e-4*rate {
				t.Fatalf("group %d class %d: γy = %v, λ = %v", g, i, got, rate)
			}
		}
	}
}
