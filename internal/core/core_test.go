package core

import (
	"math"
	"testing"

	"mfdl/internal/fluid"
	"mfdl/internal/scheme"
)

func system(t *testing.T, p float64) *System {
	t.Helper()
	s, err := NewSystem(Config{Params: fluid.PaperParams, K: 10, Lambda0: 1, P: p})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := NewSystem(Config{Params: fluid.PaperParams, K: 10, Lambda0: 1, P: 2}); err == nil {
		t.Fatal("p=2 accepted")
	}
}

func TestEvaluateAllSchemes(t *testing.T) {
	s := system(t, 0.9)
	for _, sc := range Schemes {
		res, err := s.Evaluate(sc, WithRho(0.1))
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if string(sc) != res.Scheme {
			t.Fatalf("scheme label %q for %s", res.Scheme, sc)
		}
		avg := res.AvgOnlinePerFile()
		if math.IsNaN(avg) || avg <= 0 {
			t.Fatalf("%s: bad average %v", sc, avg)
		}
	}
}

func TestEvaluateUnknownScheme(t *testing.T) {
	if _, err := system(t, 0.5).Evaluate(Scheme("bogus")); err == nil {
		t.Fatal("bogus scheme evaluated")
	}
}

func TestMFCDEqualsMTCDInFluidModel(t *testing.T) {
	// Section 3.4: MFCD is equivalent to MTCD in the fluid model.
	s := system(t, 0.7)
	a, err := s.Evaluate(scheme.MTCD)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Evaluate(MFCD)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.AvgOnlinePerFile()-b.AvgOnlinePerFile()) > 1e-9 {
		t.Fatalf("MFCD %v != MTCD %v", b.AvgOnlinePerFile(), a.AvgOnlinePerFile())
	}
}

func TestCompareAndBest(t *testing.T) {
	s := system(t, 0.9)
	comps, err := s.Compare(Schemes, WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 4 {
		t.Fatalf("comparisons = %d", len(comps))
	}
	best, err := Best(comps)
	if err != nil {
		t.Fatal(err)
	}
	// At p=0.9 with ρ=0 the paper's proposal wins.
	if best.Scheme != CMFSD {
		t.Fatalf("best scheme %s, want CMFSD", best.Scheme)
	}
}

func TestCompareEmpty(t *testing.T) {
	if _, err := system(t, 0.5).Compare(nil); err == nil {
		t.Fatal("empty compare accepted")
	}
	if _, err := Best(nil); err == nil {
		t.Fatal("empty Best accepted")
	}
}

func TestWithRhoDefaultIsZero(t *testing.T) {
	s := system(t, 0.9)
	def, err := s.Evaluate(CMFSD)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := s.Evaluate(CMFSD, WithRho(0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(def.AvgOnlinePerFile()-explicit.AvgOnlinePerFile()) > 1e-9 {
		t.Fatal("default ρ is not 0")
	}
}
