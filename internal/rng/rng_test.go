package rng

import (
	"math"
	"math/big"
	"slices"
	"testing"
	"testing/quick"
)

func TestReproducibleBySeed(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different seeds", same)
	}
}

func TestDistinctStreamsDiffer(t *testing.T) {
	a := NewStream(7, 1)
	b := NewStream(7, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from different streams", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws from split streams", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d, want ~%v", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	s := New(8)
	const n = 200000
	lambda := 0.05
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Exp(lambda)
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean-1/lambda) > 0.3 {
		t.Fatalf("exp mean %v, want ~%v", mean, 1/lambda)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1/(lambda*lambda)) > 0.05/(lambda*lambda) {
		t.Fatalf("exp variance %v, want ~%v", variance, 1/(lambda*lambda))
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestPoissonMoments(t *testing.T) {
	s := New(10)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("Poisson(%v) mean %v", mean, got)
		}
	}
}

func TestPoissonZeroMean(t *testing.T) {
	s := New(11)
	if v := s.Poisson(0); v != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", v)
	}
	if v := s.Poisson(-1); v != 0 {
		t.Fatalf("Poisson(-1) = %d, want 0", v)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(14)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v, want ~0", mean)
	}
	variance := sumSq/n - mean*mean
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(15)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.PermInto(nil, n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(16)
	vals := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, v := range vals {
		sum += v
	}
	ShuffleSlice(s, vals)
	got := 0
	for _, v := range vals {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: sum %d, want %d", got, sum)
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	freq := float64(hits) / n
	if math.Abs(freq-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", freq)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	// Must not hang or panic; determinism across zero values is documented.
	_ = s.Uint64()
	_ = s.Float64()
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(0.05)
	}
}

// refPerm is the reference Fisher–Yates PermInto's fused loop must
// reproduce: the identity, then for i = n−1 down to 1 a swap with
// Intn(i+1), one method call per draw.
func refPerm(s *Source, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestPermIntoMatchesPerm checks PermInto against refPerm for every n in
// [0, 5000) in steps, through one buffer that shrinks and grows: the same
// entries, and the same state afterwards (the next Uint64 of both sources
// agrees), so a caller sees the draw sequence of the reference.
func TestPermIntoMatchesPerm(t *testing.T) {
	a := New(42)
	b := New(42)
	var buf []int
	for n := 0; n < 5000; n += 1 + n/16 {
		for _, m := range []int{n, n / 3} {
			want := refPerm(a, m)
			buf = b.PermInto(buf, m)
			if !slices.Equal(buf, want) {
				t.Fatalf("n=%d: PermInto = %v, reference %v", m, buf, want)
			}
			if x, y := a.Uint64(), b.Uint64(); x != y {
				t.Fatalf("n=%d: next Uint64 %016x after PermInto, %016x after the reference", m, y, x)
			}
		}
	}
}

// TestShuffleSliceMatchesPerm checks the fused loop on another element
// type against refPerm: Fisher–Yates applies the same swaps to any values,
// so x[k] must end up as the value that started at refPerm's k-th entry,
// and the state afterwards must agree.
func TestShuffleSliceMatchesPerm(t *testing.T) {
	a := New(9)
	b := New(9)
	for _, n := range []int{0, 1, 2, 3, 25, 300, 4999} {
		got := make([]int32, n)
		for i := range got {
			got[i] = int32(i * 3)
		}
		ShuffleSlice(b, got)
		for k, i := range refPerm(a, n) {
			if got[k] != int32(i*3) {
				t.Fatalf("n=%d: ShuffleSlice[%d] = %d, want %d", n, k, got[k], i*3)
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("n=%d: next Uint64 %016x after ShuffleSlice, %016x after the reference", n, y, x)
		}
	}
}

// mulInverse returns the inverse of odd b modulo 2^64 (Newton's
// iteration: each step doubles the correct low bits).
func mulInverse(b uint64) uint64 {
	x := b // correct to 3 bits for odd b
	for i := 0; i < 5; i++ {
		x *= 2 - b*x
	}
	return x
}

// TestBoundedRejection drives bounded with crafted draws around its
// rejection threshold 2^64 mod bound, which the stream golden almost never
// reaches, and checks every answer against the definition in big integers:
// j = ⌊v·bound / 2^64⌋, accepted iff v·bound mod 2^64 ≥ 2^64 mod bound.
func TestBoundedRejection(t *testing.T) {
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	check := func(v, bound uint64, wantOK bool) {
		t.Helper()
		prod := new(big.Int).Mul(new(big.Int).SetUint64(v), new(big.Int).SetUint64(bound))
		hi, lo := new(big.Int).DivMod(prod, two64, new(big.Int))
		threshold := new(big.Int).Mod(two64, new(big.Int).SetUint64(bound))
		ok := lo.Cmp(threshold) >= 0
		if ok != wantOK {
			t.Fatalf("v=%#x bound=%d: reference says ok=%v, test expected %v", v, bound, ok, wantOK)
		}
		j, gotOK := bounded(v, bound)
		if gotOK != ok || (ok && j != hi.Uint64()) {
			t.Errorf("bounded(%#x, %d) = (%d, %v), want (%d, %v)", v, bound, j, gotOK, hi.Uint64(), ok)
		}
	}
	for _, bound := range []uint64{3, 5, 25, 4999, 1<<62 + 1, 1<<63 + 1, math.MaxUint64} {
		threshold := -bound % bound
		inv := mulInverse(bound)
		// v·bound mod 2^64 = lo exactly when v = lo·bound⁻¹.
		check(0, bound, false)
		check((threshold-1)*inv, bound, false)
		check(threshold*inv, bound, true)
		check((threshold+1)*inv, bound, true)
		check(math.MaxUint64, bound, true)
	}
	// An even bound: 6 = 2·3 has no inverse, but v = 0 still rejects and
	// a power of two never does.
	check(0, 6, false)
	check(1<<62, 6, true)
	check(0, 1<<20, true)
	src := New(3)
	for i := 0; i < 2000; i++ {
		v, bound := src.Uint64(), src.Uint64()>>uint(src.Intn(64))|1
		_, ok := bounded(v, bound)
		check(v, bound, ok)
	}
}

func BenchmarkPermInto(b *testing.B) {
	s := New(1)
	var buf []int
	for i := 0; i < b.N; i++ {
		buf = s.PermInto(buf, 3000)
	}
}

func TestPermIntoReusesBuffer(t *testing.T) {
	s := New(7)
	buf := make([]int, 0, 50)
	got := s.PermInto(buf, 50)
	if &got[0] != &buf[:1][0] {
		t.Fatal("PermInto allocated despite sufficient capacity")
	}
}
