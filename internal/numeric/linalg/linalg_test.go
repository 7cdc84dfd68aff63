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

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("transpose wrong:\n%v", tr)
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	for i := range c.Data {
		if c.Data[i] != want.Data[i] {
			t.Fatalf("Mul wrong:\n%v", c)
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	src := rng.New(1)
	f := func(nRaw uint8) bool {
		n := int(nRaw%5) + 1
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = src.Float64()*4 - 2
		}
		prod := a.Mul(Identity(n))
		for i := range prod.Data {
			if prod.Data[i] != a.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestAddScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := a.Add(a.Scale(2))
	if b.At(0, 0) != 3 || b.At(0, 1) != 6 {
		t.Fatalf("Add/Scale wrong: %v", b)
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
	if math.Abs(NewLUOrDie(Identity(5)).Det()-1) > 1e-12 {
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

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-12 {
				t.Fatalf("A·A⁻¹ =\n%v", prod)
			}
		}
	}
}

func TestQRReconstruction(t *testing.T) {
	src := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		n := 2 + trial%5
		a := NewMatrix(n, n)
		for i := range a.Data {
			a.Data[i] = src.Float64()*4 - 2
		}
		qr, err := NewQR(a)
		if err != nil {
			t.Fatal(err)
		}
		// Q orthonormal.
		qtq := qr.Q.T().Mul(qr.Q)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(qtq.At(i, j)-want) > 1e-10 {
					t.Fatalf("QᵀQ not identity:\n%v", qtq)
				}
			}
		}
		// R upper triangular and QR = A.
		back := qr.Q.Mul(qr.R)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j < i && math.Abs(qr.R.At(i, j)) > 1e-12 {
					t.Fatalf("R not upper triangular:\n%v", qr.R)
				}
				if math.Abs(back.At(i, j)-a.At(i, j)) > 1e-10 {
					t.Fatalf("QR != A")
				}
			}
		}
	}
}

func TestQRRejectsWide(t *testing.T) {
	if _, err := NewQR(NewMatrix(2, 3)); err == nil {
		t.Fatal("wide matrix accepted")
	}
}

func TestSymmetricEigenDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, -1}})
	vals, _, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-(-1)) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Fatalf("vals = %v", vals)
	}
}

func TestSymmetricEigenKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := SymmetricEigen(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Fatalf("vals = %v", vals)
	}
	// A·v = λ·v for each eigenpair.
	for j := 0; j < 2; j++ {
		v := []float64{vecs.At(0, j), vecs.At(1, j)}
		av := a.MulVec(v)
		for i := range v {
			if math.Abs(av[i]-vals[j]*v[i]) > 1e-10 {
				t.Fatalf("eigenpair %d violated", j)
			}
		}
	}
}

func TestSymmetricEigenTraceAndResidualProperty(t *testing.T) {
	src := rng.New(4)
	f := func(nRaw uint8) bool {
		n := int(nRaw%6) + 2
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := src.Float64()*4 - 2
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := SymmetricEigen(a)
		if err != nil {
			return false
		}
		// Trace preservation.
		trace, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			trace += a.At(i, i)
			sum += vals[i]
		}
		if math.Abs(trace-sum) > 1e-9 {
			return false
		}
		// Residual of each eigenpair.
		for j := 0; j < n; j++ {
			v := make([]float64, n)
			for i := range v {
				v[i] = vecs.At(i, j)
			}
			av := a.MulVec(v)
			for i := range v {
				if math.Abs(av[i]-vals[j]*v[i]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
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
