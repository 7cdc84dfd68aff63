package linalg

import (
	"errors"
	"math"
	"sort"
)

// Complex128 avoidance: eigenvalues are reported as (real, imag) pairs so
// that downstream code can stay on float64 slices.

// Eigenvalue is one eigenvalue of a real matrix.
type Eigenvalue struct {
	Re, Im float64
}

// hessenberg reduces a (square) to upper Hessenberg form in place using
// stabilized elementary transformations (EISPACK elmhes).
func hessenberg(a *Matrix) {
	n := a.Rows
	for m := 1; m < n-1; m++ {
		x := 0.0
		pivot := m
		for j := m; j < n; j++ {
			if math.Abs(a.At(j, m-1)) > math.Abs(x) {
				x = a.At(j, m-1)
				pivot = j
			}
		}
		if pivot != m {
			for j := m - 1; j < n; j++ {
				tmp := a.At(pivot, j)
				a.Set(pivot, j, a.At(m, j))
				a.Set(m, j, tmp)
			}
			for i := 0; i < n; i++ {
				tmp := a.At(i, pivot)
				a.Set(i, pivot, a.At(i, m))
				a.Set(i, m, tmp)
			}
		}
		if x != 0 {
			for i := m + 1; i < n; i++ {
				y := a.At(i, m-1)
				if y == 0 {
					continue
				}
				y /= x
				a.Set(i, m-1, y)
				for j := m; j < n; j++ {
					a.Set(i, j, a.At(i, j)-y*a.At(m, j))
				}
				for j := 0; j < n; j++ {
					a.Set(j, m, a.At(j, m)+y*a.At(j, i))
				}
			}
		}
	}
	// The entries below the subdiagonal now hold multipliers; zero them so
	// the QR iteration sees a clean Hessenberg matrix.
	for i := 2; i < n; i++ {
		for j := 0; j < i-1; j++ {
			a.Set(i, j, 0)
		}
	}
}

// Eigenvalues computes all eigenvalues of a general real square matrix via
// Hessenberg reduction followed by the Francis double-shift QR algorithm
// (EISPACK hqr). The input is not modified. Results are sorted by
// descending real part, then descending imaginary part.
func Eigenvalues(a *Matrix) ([]Eigenvalue, error) {
	if a.Rows != a.Cols {
		return nil, errors.New("linalg: eigen requires a square matrix")
	}
	n := a.Rows
	h := a.Clone()
	hessenberg(h)
	wr := make([]float64, n)
	wi := make([]float64, n)
	if err := hqr(h, wr, wi); err != nil {
		return nil, err
	}
	out := make([]Eigenvalue, n)
	for i := range out {
		out[i] = Eigenvalue{Re: wr[i], Im: wi[i]}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Re != out[j].Re {
			return out[i].Re > out[j].Re
		}
		return out[i].Im > out[j].Im
	})
	return out, nil
}

// MaxRealPart returns the largest eigenvalue real part (the stability
// abscissa). A negative value means the linearization is asymptotically
// stable.
func MaxRealPart(eigs []Eigenvalue) float64 {
	m := math.Inf(-1)
	for _, e := range eigs {
		if e.Re > m {
			m = e.Re
		}
	}
	return m
}

// hqr finds all eigenvalues of the upper Hessenberg matrix a, storing real
// parts in wr and imaginary parts in wi. Direct port of the classic EISPACK
// HQR routine (as presented in Numerical Recipes) to 0-based indexing.
// a is destroyed.
func hqr(a *Matrix, wr, wi []float64) error {
	n := a.Rows
	anorm := 0.0
	for i := 0; i < n; i++ {
		jLo := i - 1
		if jLo < 0 {
			jLo = 0
		}
		for j := jLo; j < n; j++ {
			anorm += math.Abs(a.At(i, j))
		}
	}
	if anorm == 0 {
		// Zero matrix: all eigenvalues zero.
		return nil
	}
	nn := n - 1
	t := 0.0
	for nn >= 0 {
		its := 0
		var l int
		for {
			// Find a single small subdiagonal element.
			for l = nn; l >= 1; l-- {
				s := math.Abs(a.At(l-1, l-1)) + math.Abs(a.At(l, l))
				if s == 0 {
					s = anorm
				}
				if math.Abs(a.At(l, l-1))+s == s {
					a.Set(l, l-1, 0)
					break
				}
			}
			if l < 0 {
				l = 0
			}
			x := a.At(nn, nn)
			if l == nn { // one root found
				wr[nn] = x + t
				wi[nn] = 0
				nn--
				break
			}
			y := a.At(nn-1, nn-1)
			w := a.At(nn, nn-1) * a.At(nn-1, nn)
			if l == nn-1 { // two roots found
				p := 0.5 * (y - x)
				q := p*p + w
				z := math.Sqrt(math.Abs(q))
				x += t
				if q >= 0 { // real pair
					z = p + math.Copysign(z, p)
					wr[nn-1] = x + z
					wr[nn] = wr[nn-1]
					if z != 0 {
						wr[nn] = x - w/z
					}
					wi[nn-1], wi[nn] = 0, 0
				} else { // complex pair
					wr[nn-1] = x + p
					wr[nn] = x + p
					wi[nn-1] = -z
					wi[nn] = z
				}
				nn -= 2
				break
			}
			// No root yet: QR iteration.
			if its == 30 {
				return errors.New("linalg: too many QR iterations in hqr")
			}
			if its == 10 || its == 20 { // exceptional shift
				t += x
				for i := 0; i <= nn; i++ {
					a.Set(i, i, a.At(i, i)-x)
				}
				s := math.Abs(a.At(nn, nn-1)) + math.Abs(a.At(nn-1, nn-2))
				y = 0.75 * s
				x = y
				w = -0.4375 * s * s
			}
			its++
			// Form shift; look for two consecutive small subdiagonals.
			var m int
			var p, q, r float64
			for m = nn - 2; m >= l; m-- {
				z := a.At(m, m)
				rr := x - z
				ss := y - z
				p = (rr*ss-w)/a.At(m+1, m) + a.At(m, m+1)
				q = a.At(m+1, m+1) - z - rr - ss
				r = a.At(m+2, m+1)
				s := math.Abs(p) + math.Abs(q) + math.Abs(r)
				p /= s
				q /= s
				r /= s
				if m == l {
					break
				}
				u := math.Abs(a.At(m, m-1)) * (math.Abs(q) + math.Abs(r))
				v := math.Abs(p) * (math.Abs(a.At(m-1, m-1)) + math.Abs(z) + math.Abs(a.At(m+1, m+1)))
				if u+v == v {
					break
				}
			}
			if m < l {
				m = l
			}
			for i := m + 2; i <= nn; i++ {
				a.Set(i, i-2, 0)
				if i != m+2 {
					a.Set(i, i-3, 0)
				}
			}
			// Double QR step on rows l..nn, columns m..nn.
			for k := m; k <= nn-1; k++ {
				if k != m {
					p = a.At(k, k-1)
					q = a.At(k+1, k-1)
					r = 0
					if k != nn-1 {
						r = a.At(k+2, k-1)
					}
					x = math.Abs(p) + math.Abs(q) + math.Abs(r)
					if x != 0 {
						p /= x
						q /= x
						r /= x
					}
				}
				s := math.Copysign(math.Sqrt(p*p+q*q+r*r), p)
				if s == 0 {
					continue
				}
				if k == m {
					if l != m {
						a.Set(k, k-1, -a.At(k, k-1))
					}
				} else {
					a.Set(k, k-1, -s*x)
				}
				p += s
				x = p / s
				y = q / s
				z := r / s
				q /= p
				r /= p
				// Row modification.
				for j := k; j <= nn; j++ {
					pp := a.At(k, j) + q*a.At(k+1, j)
					if k != nn-1 {
						pp += r * a.At(k+2, j)
						a.Set(k+2, j, a.At(k+2, j)-pp*z)
					}
					a.Set(k+1, j, a.At(k+1, j)-pp*y)
					a.Set(k, j, a.At(k, j)-pp*x)
				}
				mmin := nn
				if k+3 < nn {
					mmin = k + 3
				}
				// Column modification.
				for i := l; i <= mmin; i++ {
					pp := x*a.At(i, k) + y*a.At(i, k+1)
					if k != nn-1 {
						pp += z * a.At(i, k+2)
						a.Set(i, k+2, a.At(i, k+2)-pp*r)
					}
					a.Set(i, k+1, a.At(i, k+1)-pp*q)
					a.Set(i, k, a.At(i, k)-pp)
				}
			}
		}
	}
	return nil
}
