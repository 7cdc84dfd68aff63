package ode

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/numeric/linalg"
)

// Jacobian fills jac with ∂f/∂x of the autonomous f at x (evaluated at
// t = 0) by central differences, perturbing component c by
// rel·max(1, |x[c]|); fp, fm and xp are caller-owned work slices of
// len(x).
func Jacobian(f RHS, x []float64, rel float64, jac *linalg.Matrix, fp, fm, xp []float64) {
	n := len(x)
	copy(xp, x)
	for c := 0; c < n; c++ {
		h := rel * math.Max(1, math.Abs(x[c]))
		orig := xp[c]
		xp[c] = orig + h
		f(0, xp, fp)
		xp[c] = orig - h
		f(0, xp, fm)
		xp[c] = orig
		for r := 0; r < n; r++ {
			jac.Set(r, c, (fp[r]-fm[r])/(2*h))
		}
	}
}

// ErrNewtonFailed is returned when the damped Newton iteration stalls.
var ErrNewtonFailed = errors.New("ode: Newton steady-state iteration failed")

// NewtonSteadyState solves f(x) = 0 directly by damped Newton iteration
// from the supplied starting state (modified in place), until the residual
// ‖f(x)‖∞ is at most tol. Each of at most 200 iterations backtracks,
// halving the step up to 30 times, until the residual decreases. It is
// vastly faster than time relaxation when the starting point is in the
// basin — callers typically warm-start it with a short relaxation.
//
// The solve allocates one workspace, the Jacobian and seven vectors, and
// no iteration allocates: each rebuilds the Jacobian in the same matrix
// and factors it there, in place.
func NewtonSteadyState(f RHS, x []float64, tol float64) error {
	n := len(x)
	w := make([]float64, n*n+7*n)
	jac := &linalg.Matrix{Rows: n, Cols: n, Data: w[:n*n]}
	vec := func(i int) []float64 { return w[n*n+i*n : n*n+(i+1)*n] }
	fx, trial, rhs, delta, fp, fm, xp := vec(0), vec(1), vec(2), vec(3), vec(4), vec(5), vec(6)
	var lu linalg.LU
	f(0, x, fx)
	resid := MaxNorm(fx)
	for it := 0; it < 200; it++ {
		if resid <= tol {
			return nil
		}
		Jacobian(f, x, 1e-7, jac, fp, fm, xp)
		for i := range rhs {
			rhs[i] = -fx[i]
		}
		err := lu.Factor(jac)
		if err == nil {
			err = lu.Solve(delta, rhs)
		}
		if err != nil {
			return fmt.Errorf("ode: Newton Jacobian solve: %w", err)
		}
		// Backtracking line search on the residual norm.
		step := 1.0
		improved := false
		for back := 0; back < 30; back++ {
			for i := range trial {
				trial[i] = x[i] + step*delta[i]
			}
			f(0, trial, fx)
			if newResid := MaxNorm(fx); newResid < resid {
				copy(x, trial)
				resid = newResid
				improved = true
				break
			}
			step *= 0.5
		}
		if !improved {
			return ErrNewtonFailed
		}
	}
	if resid <= tol {
		return nil
	}
	return ErrNewtonFailed
}
