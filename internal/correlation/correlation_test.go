package correlation

import (
	"math"
	"testing"
	"testing/quick"

	"mfdl/internal/stats"
)

func mustNew(t *testing.T, k int, p, l0 float64) *Model {
	t.Helper()
	m, err := New(k, p, l0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestValidation(t *testing.T) {
	if _, err := New(0, 0.5, 1); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := New(10, -0.1, 1); err == nil {
		t.Fatal("p<0 accepted")
	}
	if _, err := New(10, 1.1, 1); err == nil {
		t.Fatal("p>1 accepted")
	}
	if _, err := New(10, 0.5, 0); err == nil {
		t.Fatal("λ₀=0 accepted")
	}
	for _, c := range []struct{ p, l0 float64 }{{math.NaN(), 1}, {0.5, math.NaN()}, {0.5, math.Inf(1)}} {
		if _, err := New(10, c.p, c.l0); err == nil {
			t.Fatalf("p=%v λ₀=%v accepted", c.p, c.l0)
		}
	}
	if _, err := New(10, 0.5, 1); err != nil {
		t.Fatal("valid model rejected")
	}
}

func TestUserRateOutOfRange(t *testing.T) {
	m := mustNew(t, 5, 0.5, 1)
	if m.UserRate(0) != 0 || m.UserRate(6) != 0 || m.UserRate(-1) != 0 {
		t.Fatal("out-of-range class rate not 0")
	}
}

func TestUserRatesSumAndMass(t *testing.T) {
	m := mustNew(t, 10, 0.3, 2)
	// Σλ_i = λ₀(1 − (1−p)^K).
	want := 2 * (1 - math.Pow(0.7, 10))
	if got := m.TotalUserRate(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("total user rate %v, want %v", got, want)
	}
}

func TestExtremes(t *testing.T) {
	// p = 1: every user requests all K files.
	m := mustNew(t, 10, 1, 1)
	if got := m.UserRate(10); math.Abs(got-1) > 1e-12 {
		t.Fatalf("p=1 class-K rate %v, want 1", got)
	}
	for i := 1; i < 10; i++ {
		if m.UserRate(i) != 0 {
			t.Fatalf("p=1 class-%d rate nonzero", i)
		}
	}
	// p = 0: nobody requests anything.
	m0 := mustNew(t, 10, 0, 1)
	if m0.TotalUserRate() != 0 {
		t.Fatal("p=0 should give zero arrivals")
	}
}

func TestTorrentClassRateIdentity(t *testing.T) {
	// λ_j^i must equal λ₀·C(K−1,i−1)·pⁱ·(1−p)^{K−i}; check against the
	// direct combinatorial formula.
	m := mustNew(t, 10, 0.4, 3)
	choose := func(n, k int) float64 {
		c := 1.0
		for i := 0; i < k; i++ {
			c = c * float64(n-i) / float64(i+1)
		}
		return c
	}
	for i := 1; i <= 10; i++ {
		want := 3 * choose(9, i-1) * math.Pow(0.4, float64(i)) * math.Pow(0.6, float64(10-i))
		if got := m.TorrentClassRate(i); math.Abs(got-want) > 1e-12 {
			t.Fatalf("λ_j^%d = %v, want %v", i, got, want)
		}
	}
}

func TestTorrentRatesBalanceFileRate(t *testing.T) {
	// K torrents, each receiving Σ_i λ_j^i peers, must together receive
	// the total file request rate λ₀·K·p.
	f := func(pRaw uint8, kRaw uint8) bool {
		p := float64(pRaw) / 255
		k := int(kRaw%15) + 1
		m, err := New(k, p, 1.5)
		if err != nil {
			return false
		}
		perTorrent := 0.0
		for i := 1; i <= k; i++ {
			perTorrent += m.TorrentClassRate(i)
		}
		return math.Abs(float64(k)*perTorrent-1.5*float64(k)*p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLambda0Linearity(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := float64(pRaw) / 255
		a, err1 := New(10, p, 1)
		b, err2 := New(10, p, 7)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := 1; i <= 10; i++ {
			if math.Abs(b.UserRate(i)-7*a.UserRate(i)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRatesMatchBinomialFormula pins the tabulated rates bit-for-bit to
// the formula they cache, λ_i = λ₀·BinomialPMF(K, i, p) and λ_j^i = λ_i·i/K,
// including the zero outside 1..K.
func TestRatesMatchBinomialFormula(t *testing.T) {
	const l0 = 1.7
	for k := 1; k <= 30; k++ {
		for _, p := range []float64{0, 1e-9, 0.3, 0.5, 1} {
			m := mustNew(t, k, p, l0)
			for i := -1; i <= k+1; i++ {
				user, class := 0.0, 0.0
				if i >= 1 && i <= k {
					user = l0 * stats.BinomialPMF(k, i, p)
					class = user * float64(i) / float64(k)
				}
				if got := m.UserRate(i); math.Float64bits(got) != math.Float64bits(user) {
					t.Fatalf("K=%d p=%g: UserRate(%d) = %v, want %v", k, p, i, got, user)
				}
				if got := m.TorrentClassRate(i); math.Float64bits(got) != math.Float64bits(class) {
					t.Fatalf("K=%d p=%g: TorrentClassRate(%d) = %v, want %v", k, p, i, got, class)
				}
			}
		}
	}
}

// TestClassDrawsProportionalToRates maps an even grid of u through Class:
// each class must take its λ_i/Σλ share of the grid, to within one point.
func TestClassDrawsProportionalToRates(t *testing.T) {
	m, err := New(5, 0.4, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	counts := make([]int, m.K+1)
	for j := 0; j < n; j++ {
		counts[m.Class((float64(j)+0.5)/n)]++
	}
	if counts[0] != 0 {
		t.Fatalf("class 0 drawn %d times", counts[0])
	}
	for i := 1; i <= m.K; i++ {
		want := n * m.UserRate(i) / m.TotalUserRate()
		if math.Abs(float64(counts[i])-want) > 1 {
			t.Errorf("class %d drawn %d times, want %.1f", i, counts[i], want)
		}
	}
	if got := m.Class(math.Nextafter(1, 0)); got != m.K {
		t.Errorf("Class(1⁻) = %d, want %d", got, m.K)
	}
}
