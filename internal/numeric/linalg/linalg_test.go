package linalg

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mfdl/internal/rng"
)

func TestMatrixBasics(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("At wrong")
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Fatal("Set wrong")
	}
	c := m.Clone()
	c.Set(0, 0, 0)
	if m.At(0, 0) != 9 {
		t.Fatal("Clone aliases")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestLUSolve(t *testing.T) {
	a := FromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	x, err := Solve(a, []float64{5, -2, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	src := rng.New(2)
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 2
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = src.Float64()*2 - 1
		}
		// Diagonal dominance ensures nonsingularity.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = src.Float64()*10 - 5
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		r := a.MulVec(x)
		for i := range r {
			if math.Abs(r[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := Solve(a, []float64{1, 2}); err == nil {
		t.Fatal("singular matrix accepted")
	}
}

func TestLUDet(t *testing.T) {
	a := FromRows([][]float64{{3, 8}, {4, 6}})
	f, err := NewLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-(-14)) > 1e-12 {
		t.Fatalf("det = %v, want -14", f.Det())
	}
	if math.Abs(NewLUOrDie(FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})).Det()-1) > 1e-12 {
		t.Fatal("det(I) != 1")
	}
}

func NewLUOrDie(a *Matrix) *LU {
	f, err := NewLU(a)
	if err != nil {
		panic(err)
	}
	return f
}

func sortEig(e []Eigenvalue) {
	sort.Slice(e, func(i, j int) bool {
		if e[i].Re != e[j].Re {
			return e[i].Re < e[j].Re
		}
		return e[i].Im < e[j].Im
	})
}

func TestEigenvaluesTriangular(t *testing.T) {
	a := FromRows([][]float64{
		{1, 5, -3},
		{0, 4, 2},
		{0, 0, -2},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortEig(eigs)
	want := []float64{-2, 1, 4}
	for i, w := range want {
		if math.Abs(eigs[i].Re-w) > 1e-9 || math.Abs(eigs[i].Im) > 1e-9 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestEigenvaluesRotation(t *testing.T) {
	// Rotation by θ has eigenvalues cosθ ± i·sinθ.
	theta := 0.7
	a := FromRows([][]float64{
		{math.Cos(theta), -math.Sin(theta)},
		{math.Sin(theta), math.Cos(theta)},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eigs {
		if math.Abs(e.Re-math.Cos(theta)) > 1e-9 || math.Abs(math.Abs(e.Im)-math.Sin(theta)) > 1e-9 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestEigenvaluesCompanion(t *testing.T) {
	// Companion matrix of p(x) = x³ - 6x² + 11x - 6 = (x-1)(x-2)(x-3).
	a := FromRows([][]float64{
		{6, -11, 6},
		{1, 0, 0},
		{0, 1, 0},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	sortEig(eigs)
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(eigs[i].Re-w) > 1e-8 || math.Abs(eigs[i].Im) > 1e-8 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestEigenvaluesTracePreservedProperty(t *testing.T) {
	src := rng.New(5)
	f := func(nRaw uint8) bool {
		n := int(nRaw%7) + 2
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = src.Float64()*4 - 2
		}
		eigs, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		trace, reSum, imSum := 0.0, 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
		}
		for _, e := range eigs {
			reSum += e.Re
			imSum += e.Im
		}
		// A backward-stable QR moves the trace by about n·ε·‖A‖.
		tol := 1e-7 * frobenius(a)
		return math.Abs(trace-reSum) < tol && math.Abs(imSum) < tol
	}
	if err := quick.Check(f, fixedQuick(60)); err != nil {
		t.Fatal(err)
	}
}

// fixedQuick is a quick.Config with a fixed Rand, so the drawn sizes — and,
// with the fixed matrix streams, every matrix — are the same on every run.
func fixedQuick(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1))}
}

// frobenius returns the Frobenius norm of a.
func frobenius(a *Matrix) float64 {
	sum := 0.0
	for _, v := range a.Data {
		sum += v * v
	}
	return math.Sqrt(sum)
}

func TestEigenvaluesDetPreservedProperty(t *testing.T) {
	// Product of eigenvalues equals determinant (complex pairs contribute
	// |λ|² since they come in conjugates).
	src := rng.New(6)
	f := func(nRaw uint8) bool {
		n := int(nRaw%5) + 2
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = src.Float64()*2 - 1
		}
		lu, err := NewLU(a)
		if err != nil {
			return true // singular draw; skip
		}
		det := lu.Det()
		eigs, err := Eigenvalues(a)
		if err != nil {
			return false
		}
		prodRe, prodIm := 1.0, 0.0
		for _, e := range eigs {
			prodRe, prodIm = prodRe*e.Re-prodIm*e.Im, prodRe*e.Im+prodIm*e.Re
		}
		// The product of eigenvalues has degree n in A, so its rounding
		// error scales with ‖A‖ⁿ (which bounds |det| by Hadamard).
		tol := 1e-6 * math.Pow(frobenius(a), float64(n))
		return math.Abs(prodRe-det) < tol && math.Abs(prodIm) < tol
	}
	if err := quick.Check(f, fixedQuick(60)); err != nil {
		t.Fatal(err)
	}
}

func TestEigenvaluesZeroMatrix(t *testing.T) {
	eigs, err := Eigenvalues(NewMatrix(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range eigs {
		if e.Re != 0 || e.Im != 0 {
			t.Fatalf("eigs = %v", eigs)
		}
	}
}

func TestMaxRealPart(t *testing.T) {
	eigs := []Eigenvalue{{-3, 0}, {-0.5, 2}, {-1, 0}}
	if got := MaxRealPart(eigs); got != -0.5 {
		t.Fatalf("MaxRealPart = %v", got)
	}
}

func TestEigenvaluesStableFluidJacobian(t *testing.T) {
	// Jacobian of the single-torrent fluid model at its fixed point
	// (from Qiu–Srikant): must be stable for γ > μ.
	mu, eta, gamma := 0.02, 0.5, 0.05
	a := FromRows([][]float64{
		{-mu * eta, -mu},
		{mu * eta, mu - gamma},
	})
	eigs, err := Eigenvalues(a)
	if err != nil {
		t.Fatal(err)
	}
	if MaxRealPart(eigs) >= 0 {
		t.Fatalf("fluid Jacobian unstable: %v", eigs)
	}
}

func BenchmarkEigenvalues10(b *testing.B) {
	src := rng.New(7)
	a := NewMatrix(10, 10)
	for i := range a.Data {
		a.Data[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eigenvalues(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLUSolve65(b *testing.B) {
	src := rng.New(8)
	n := 65
	a := NewMatrix(n, n)
	for i := range a.Data {
		a.Data[i] = src.Float64()
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = src.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
