package stats

import (
	"math"
	"testing"
	"testing/quick"

	"mfdl/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func addAll(s *Summary, xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	addAll(&s, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Unbiased variance of this classic dataset is 32/7.
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %v", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdErr() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummarySingle(t *testing.T) {
	var s Summary
	s.Add(3.5)
	if s.Mean() != 3.5 || s.Variance() != 0 {
		t.Fatalf("single-sample summary wrong: %v", s.String())
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	src := rng.New(1)
	f := func(naRaw, nbRaw uint8) bool {
		na, nb := int(naRaw%50)+1, int(nbRaw%50)+1
		var all, a, b Summary
		for i := 0; i < na; i++ {
			x := src.Float64()*100 - 50
			all.Add(x)
			a.Add(x)
		}
		for i := 0; i < nb; i++ {
			x := src.Float64()*100 - 50
			all.Add(x)
			b.Add(x)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almost(a.Mean(), all.Mean(), 1e-9) &&
			almost(a.Variance(), all.Variance(), 1e-9) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSummaryMergeWithEmpty(t *testing.T) {
	var a, b Summary
	addAll(&a, []float64{1, 2, 3})
	mean := a.Mean()
	a.Merge(&b) // merging empty is a no-op
	if a.N() != 3 || a.Mean() != mean {
		t.Fatal("merge with empty changed summary")
	}
	b.Merge(&a) // merging into empty copies
	if b.N() != 3 || b.Mean() != mean {
		t.Fatal("merge into empty did not copy")
	}
}

func TestTimeWeightedMean(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 10) // 10 on [0,5)
	w.Observe(5, 20) // 20 on [5,10)
	got := w.MeanUntil(10)
	if !almost(got, 15, 1e-12) {
		t.Fatalf("time-weighted mean = %v, want 15", got)
	}
}

func TestTimeWeightedHoldsLastValue(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 4)
	if got := w.MeanUntil(8); !almost(got, 4, 1e-12) {
		t.Fatalf("mean = %v, want 4", got)
	}
}

func TestTimeWeightedEmpty(t *testing.T) {
	var w TimeWeighted
	if w.MeanUntil(10) != 0 {
		t.Fatal("empty time-weighted mean should be 0")
	}
}

func TestTimeWeightedPanicsOnRegression(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on decreasing time")
		}
	}()
	var w TimeWeighted
	w.Observe(5, 1)
	w.Observe(4, 1)
}

func TestBinomialCoeff(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120},
		{10, 7, 120}, {52, 5, 2598960}, {5, -1, 0}, {5, 6, 0},
	}
	for _, c := range cases {
		if got := BinomialCoeff(c.n, c.k); !almost(got, c.want, 1e-6*c.want+1e-9) {
			t.Fatalf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialCoeffSymmetry(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw % 60)
		k := 0
		if n > 0 {
			k = int(kRaw) % (n + 1)
		}
		a, b := BinomialCoeff(n, k), BinomialCoeff(n, n-k)
		return RelErr(a, b, 1e-12) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 10, 100, 300} {
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				pm := BinomialPMF(n, k, p)
				if pm < 0 || pm > 1+1e-12 {
					t.Fatalf("PMF out of range: n=%d k=%d p=%v -> %v", n, k, p, pm)
				}
				sum += pm
			}
			if !almost(sum, 1, 1e-9) {
				t.Fatalf("PMF sum n=%d p=%v = %v", n, p, sum)
			}
		}
	}
}

func TestBinomialPMFMatchesCoeffForm(t *testing.T) {
	// For moderate n, PMF must equal C(n,k) p^k (1-p)^(n-k) exactly enough.
	n, p := 10, 0.3
	for k := 0; k <= n; k++ {
		want := BinomialCoeff(n, k) * math.Pow(p, float64(k)) * math.Pow(1-p, float64(n-k))
		if got := BinomialPMF(n, k, p); RelErr(got, want, 1e-15) > 1e-9 {
			t.Fatalf("PMF(%d,%d,%v) = %v, want %v", n, k, p, got, want)
		}
	}
}

func TestRelErr(t *testing.T) {
	if got := RelErr(11, 10, 1e-9); !almost(got, 0.1, 1e-12) {
		t.Fatalf("RelErr = %v", got)
	}
	if got := RelErr(0.5, 0, 1); got != 0.5 {
		t.Fatalf("RelErr with floor = %v", got)
	}
}

func TestLogFactorialStirlingAgreement(t *testing.T) {
	// Exact and Stirling branches must agree near the switchover.
	exact := 0.0
	for i := 2; i <= 300; i++ {
		exact += math.Log(float64(i))
	}
	if got := logFactorial(300); RelErr(got, exact, 1e-12) > 1e-10 {
		t.Fatalf("logFactorial(300) = %v, want %v", got, exact)
	}
}
