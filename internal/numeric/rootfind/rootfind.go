// Package rootfind provides scalar root-finding used by the crossover
// analysis (where one downloading scheme starts beating another as the file
// correlation p varies): Brent's method, bracket search, and the bisection
// Brent is tested against.
package rootfind

import (
	"errors"
	"math"
)

// Func is a scalar function f(x).
type Func func(x float64) float64

// ErrNoBracket is returned when [a, b] does not bracket a sign change.
var ErrNoBracket = errors.New("rootfind: interval does not bracket a root")

// ErrNoConvergence is returned when the iteration budget is exhausted.
var ErrNoConvergence = errors.New("rootfind: did not converge")

// Bisect finds a root of f in [a, b] by bisection to absolute tolerance tol.
// f(a) and f(b) must have opposite signs.
func Bisect(f Func, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	if tol <= 0 {
		tol = 1e-12
	}
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		fm := f(m)
		if fm == 0 || 0.5*(b-a) < tol {
			return m, nil
		}
		if fa*fm < 0 {
			b = m
		} else {
			a, fa = m, fm
		}
	}
	return 0.5 * (a + b), ErrNoConvergence
}

// Brent finds a root of f in the bracketing interval [a, b] using Brent's
// method (inverse quadratic interpolation with bisection fallback).
func Brent(f Func, a, b, tol float64) (float64, error) {
	if tol <= 0 {
		tol = 1e-12
	}
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	c, fc := a, fa
	d, e := b-a, b-a
	for i := 0; i < 200; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.Nextafter(math.Abs(b), math.Inf(1)) - 2*math.Abs(b) + 0.5*tol
		xm := 0.5 * (c - b)
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			// Attempt inverse quadratic interpolation.
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				qq := fa / fc
				r := fb / fc
				p = s * (2*xm*qq*(qq-r) - (b-a)*(r-1))
				q = (qq - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			min1 := 3*xm*q - math.Abs(tol1*q)
			min2 := math.Abs(e * q)
			if 2*p < math.Min(min1, min2) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else {
			b += math.Copysign(tol1, xm)
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			d, e = b-a, b-a
		}
	}
	return b, ErrNoConvergence
}

// FindBracket scans [lo, hi] in n equal steps and returns the first
// subinterval on which f changes sign. ok is false if none exists.
func FindBracket(f Func, lo, hi float64, n int) (a, b float64, ok bool) {
	if n < 1 {
		n = 1
	}
	prevX := lo
	prevF := f(lo)
	for i := 1; i <= n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n)
		fx := f(x)
		if prevF == 0 {
			return prevX, prevX, true
		}
		if prevF*fx <= 0 {
			return prevX, x, true
		}
		prevX, prevF = x, fx
	}
	return 0, 0, false
}
