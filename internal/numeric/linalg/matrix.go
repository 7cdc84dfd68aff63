// Package linalg provides the small dense linear-algebra kernel used by the
// fluid-model stability analysis (E11 in DESIGN.md): vectors, row-major
// matrices, LU factorization with partial pivoting, and eigenvalues of
// general real matrices (Hessenberg reduction plus Francis double-shift
// QR).
//
// The matrices involved are tiny (the largest fluid model here has 65
// states), so clarity is preferred over blocking or SIMD tricks.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r <= 0 || c <= 0 {
		panic("linalg: non-positive matrix dimensions")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromRows builds a matrix from row slices (all the same length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: empty rows")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic("linalg: dimension mismatch in MulVec")
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "%12.5g", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrSingular is returned when a factorization meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU is an LU factorization with partial pivoting: P·A = L·U. Its zero
// value is ready for Factor.
type LU struct {
	lu    *Matrix
	pivot []int
	sign  float64
}

// Factor factors the square matrix a in place: a is overwritten with L
// (unit diagonal, not stored) below the diagonal and U on and above it, and
// f keeps it. f reuses its pivot storage, so refactoring a matrix of the
// same size allocates nothing.
func (f *LU) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		return errors.New("linalg: LU requires a square matrix")
	}
	n := a.Rows
	if cap(f.pivot) < n {
		f.pivot = make([]int, n)
	}
	f.lu, f.pivot, f.sign = a, f.pivot[:n], 1
	for i := range f.pivot {
		f.pivot[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot: largest |entry| in column k at/below the diagonal.
		p, maxVal := k, math.Abs(a.Data[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a.Data[i*n+k]); v > maxVal {
				p, maxVal = i, v
			}
		}
		if maxVal == 0 {
			return ErrSingular
		}
		rowK := a.Data[k*n : (k+1)*n]
		if p != k {
			rowP := a.Data[p*n : (p+1)*n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.pivot[p], f.pivot[k] = f.pivot[k], f.pivot[p]
			f.sign = -f.sign
		}
		inv, uk := 1/rowK[k], rowK[k+1:]
		for i := k + 1; i < n; i++ {
			m := a.Data[i*n+k] * inv
			a.Data[i*n+k] = m
			if m == 0 {
				continue
			}
			row := a.Data[i*n+k+1 : (i+1)*n][:len(uk)]
			for j, u := range uk {
				row[j] -= m * u
			}
		}
	}
	return nil
}

// Solve writes into x the solution of A·x = b; x must not alias b.
func (f *LU) Solve(x, b []float64) error {
	n := f.lu.Rows
	if len(b) != n || len(x) != n {
		return errors.New("linalg: rhs length mismatch")
	}
	for i, p := range f.pivot {
		x[i] = b[p]
	}
	// Forward substitution (unit lower triangle).
	for i := 1; i < n; i++ {
		s := x[i]
		for j, l := range f.lu.Data[i*n : i*n+i] {
			s -= l * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		if row[i] == 0 {
			return ErrSingular
		}
		x[i] = s / row[i]
	}
	return nil
}

// Det returns det(A).
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
