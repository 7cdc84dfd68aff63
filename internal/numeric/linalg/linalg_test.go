package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
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
	x, err := solve(a, []float64{5, -2, 9})
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
		x, err := solve(a, b)
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
	if _, err := solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestLUDet(t *testing.T) {
	var f LU
	if err := f.Factor(FromRows([][]float64{{3, 8}, {4, 6}})); err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-(-14)) > 1e-12 {
		t.Fatalf("det = %v, want -14", f.Det())
	}
	if err := f.Factor(FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})); err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-1) > 1e-12 {
		t.Fatal("det(I) != 1")
	}
}

// solve factors a copy of a and solves A·x = b.
func solve(a *Matrix, b []float64) ([]float64, error) {
	var f LU
	if err := f.Factor(a.Clone()); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := f.Solve(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// refLU is NewLU and LU.Solve as they were before the factorization went
// in place and through row slices, kept verbatim: the reference
// TestLUMatchesReference holds Factor and Solve to bit for bit.
type refLU struct {
	lu    *Matrix
	pivot []int
	sign  float64
}

func newRefLU(a *Matrix) (*refLU, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: LU requires a square matrix")
	}
	n := a.Rows
	f := &refLU{lu: a.Clone(), pivot: make([]int, n), sign: 1}
	lu := f.lu
	for i := range f.pivot {
		f.pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at/below the diagonal.
		p, maxVal := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxVal {
				p, maxVal = i, v
			}
		}
		if maxVal == 0 {
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.Data[p*n+j], lu.Data[k*n+j] = lu.Data[k*n+j], lu.Data[p*n+j]
			}
			f.pivot[p], f.pivot[k] = f.pivot[k], f.pivot[p]
			f.sign = -f.sign
		}
		inv := 1 / lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) * inv
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Data[i*n+j] -= m * lu.Data[k*n+j]
			}
		}
	}
	return f, nil
}

func (f *refLU) solve(b []float64) ([]float64, error) {
	n := f.lu.Rows
	if len(b) != n {
		return nil, errors.New("linalg: rhs length mismatch")
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = b[f.pivot[i]]
	}
	// Forward substitution (unit lower triangle).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu.At(i, j) * x[j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}

// TestLUMatchesReference factors seeded random matrices with Factor and
// with refLU and compares the factors, pivots, signs and solutions by
// Float64bits. The draws force pivot swaps (small diagonals), exact-zero
// multipliers (a third of the entries are 0), ties in |pivot| and signed
// zeros (every other matrix holds −0 and integers in [−2, 2]) and, last,
// exact singularity (a repeated row), where both sides must say
// ErrSingular. One LU is
// refactored throughout, so its reused pivot storage is covered.
func TestLUMatchesReference(t *testing.T) {
	src := rng.New(44)
	var f LU
	for _, n := range []int{1, 2, 3, 8, 65} {
		for trial := 0; trial < 30; trial++ {
			a := NewMatrix(n, n)
			for i := range a.Data {
				switch {
				case trial%2 == 1: // small integers and −0: |pivot| ties, signed zeros
					a.Data[i] = []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2}[src.Intn(6)]
				case src.Intn(3) > 0:
					a.Data[i] = src.Float64()*2 - 1
				}
			}
			for i := 0; i < n; i++ {
				a.Set(i, i, a.At(i, i)*1e-3)
			}
			singular := n > 1 && trial == 29
			if singular {
				copy(a.Data[(n-1)*n:], a.Data[:n])
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = src.Float64()*10 - 5
			}
			ref, refErr := newRefLU(a)
			err := f.Factor(a.Clone())
			if !errors.Is(err, refErr) || singular && !errors.Is(err, ErrSingular) {
				t.Fatalf("n=%d trial %d: Factor err %v, reference %v", n, trial, err, refErr)
			}
			if err != nil {
				continue
			}
			for i, v := range ref.lu.Data {
				if math.Float64bits(f.lu.Data[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d trial %d: factor entry %d = %v, reference %v", n, trial, i, f.lu.Data[i], v)
				}
			}
			if !slices.Equal(f.pivot, ref.pivot) || f.sign != ref.sign {
				t.Fatalf("n=%d trial %d: pivots %v sign %v, reference %v sign %v", n, trial, f.pivot, f.sign, ref.pivot, ref.sign)
			}
			want, wantErr := ref.solve(b)
			x := make([]float64, n)
			if err := f.Solve(x, b); err != wantErr {
				t.Fatalf("n=%d trial %d: Solve err %v, reference %v", n, trial, err, wantErr)
			}
			for i, v := range want {
				if math.Float64bits(x[i]) != math.Float64bits(v) {
					t.Fatalf("n=%d trial %d: x[%d] = %v, reference %v", n, trial, i, x[i], v)
				}
			}
		}
	}
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
		var lu LU
		if err := lu.Factor(a.Clone()); err != nil {
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
	// As Newton uses it: refill the work matrix, factor it in place, solve.
	work, x := NewMatrix(n, n), make([]float64, n)
	var f LU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Data, a.Data)
		if err := f.Factor(work); err != nil {
			b.Fatal(err)
		}
		if err := f.Solve(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
