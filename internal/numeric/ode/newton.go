package ode

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/numeric/linalg"
)

// numericalJacobian fills jac with ∂f/∂x by central differences; fp, fm
// and xp are caller-owned work slices of len(x).
func numericalJacobian(f RHS, t float64, x []float64, jac *linalg.Matrix, fp, fm, xp []float64) {
	n := len(x)
	copy(xp, x)
	for c := 0; c < n; c++ {
		h := 1e-7 * math.Max(1, math.Abs(x[c]))
		orig := xp[c]
		xp[c] = orig + h
		f(t, xp, fp)
		xp[c] = orig - h
		f(t, xp, fm)
		xp[c] = orig
		for r := 0; r < n; r++ {
			jac.Set(r, c, (fp[r]-fm[r])/(2*h))
		}
	}
}

// NewtonOptions configures NewtonSteadyState.
type NewtonOptions struct {
	// Tol is the residual tolerance ‖f(x)‖∞ (default 1e-12).
	Tol float64
	// MaxIter bounds the Newton iterations (default 200).
	MaxIter int
	// Damping is the backtracking shrink factor (default 0.5) applied
	// until the residual decreases; at most 30 halvings per iteration.
	Damping float64
}

func (o *NewtonOptions) defaults() {
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 200
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		o.Damping = 0.5
	}
}

// ErrNewtonFailed is returned when the damped Newton iteration stalls.
var ErrNewtonFailed = errors.New("ode: Newton steady-state iteration failed")

// NewtonSteadyState solves f(x) = 0 directly by damped Newton iteration
// from the supplied starting state (modified in place). It is vastly
// faster than time relaxation when the starting point is in the basin —
// callers typically warm-start it with a short relaxation.
func NewtonSteadyState(f RHS, x []float64, opt NewtonOptions) error {
	opt.defaults()
	n := len(x)
	fx := make([]float64, n)
	trial := make([]float64, n)
	// Jacobian and right-hand-side workspace, reused by every iteration.
	jac := linalg.NewMatrix(n, n)
	fp, fm, xp, rhs := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	f(0, x, fx)
	resid := MaxNorm(fx)
	for it := 0; it < opt.MaxIter; it++ {
		if resid <= opt.Tol {
			return nil
		}
		numericalJacobian(f, 0, x, jac, fp, fm, xp)
		for i := range rhs {
			rhs[i] = -fx[i]
		}
		delta, err := linalg.Solve(jac, rhs)
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
			step *= opt.Damping
		}
		if !improved {
			return ErrNewtonFailed
		}
	}
	if resid <= opt.Tol {
		return nil
	}
	return ErrNewtonFailed
}
