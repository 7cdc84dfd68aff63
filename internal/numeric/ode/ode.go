// Package ode implements the ordinary-differential-equation machinery the
// fluid models need: the classic fourth-order Runge–Kutta stepper,
// trajectory sampling, a relaxation driver that integrates a system until
// it reaches steady state, and a damped Newton solve for the fixed point.
// An adaptive Dormand–Prince RK45 integrator stays as the reference the
// fixed-step path is tested against.
//
// Everything is hand-rolled over float64 slices; there are no external
// dependencies. Systems are autonomous or time-dependent via the RHS
// signature f(t, x, dst).
package ode

import (
	"errors"
	"fmt"
	"math"
)

// RHS evaluates the right-hand side dx/dt = f(t, x) into dst. dst and x are
// the same length and never alias. Implementations must not retain either
// slice.
type RHS func(t float64, x, dst []float64)

// RK4 is the classic fourth-order Runge–Kutta method — the integrator named
// in the reproduction plan for the CMFSD model (Eq. 5 of the paper).
type RK4 struct{ k1, k2, k3, k4, tmp []float64 }

// NewRK4 returns an RK4 stepper for systems of dimension dim.
func NewRK4(dim int) *RK4 {
	return &RK4{
		k1:  make([]float64, dim),
		k2:  make([]float64, dim),
		k3:  make([]float64, dim),
		k4:  make([]float64, dim),
		tmp: make([]float64, dim),
	}
}

// Step advances x from time t by h in place, using scratch storage owned by
// the stepper, so an RK4 is not safe for concurrent use. It allocates
// nothing.
func (s *RK4) Step(f RHS, t float64, x []float64, h float64) {
	n := len(x)
	k1, k2, k3, k4, tmp := s.k1[:n], s.k2[:n], s.k3[:n], s.k4[:n], s.tmp[:n]
	half, sixth := 0.5*h, h/6
	f(t, x, k1)
	for i, xi := range x {
		tmp[i] = xi + half*k1[i]
	}
	f(t+half, tmp, k2)
	for i, xi := range x {
		tmp[i] = xi + half*k2[i]
	}
	f(t+half, tmp, k3)
	for i, xi := range x {
		tmp[i] = xi + h*k3[i]
	}
	f(t+h, tmp, k4)
	for i := range x {
		x[i] += sixth * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

// checkSpan rejects a fixed-step integration from t0 to t1 with step h
// unless h is positive and finite, t0 and t1 are finite, t1 >= t0, and h
// spans a float at max(|t0|, |t1|), below which `t += h` can stop
// advancing; every comparison is written so that NaN fails it.
func checkSpan(t0, t1, h float64) error {
	if !(h > 0 && h <= math.MaxFloat64) {
		return fmt.Errorf("ode: step size %v must be positive and finite", h)
	}
	if !(math.Abs(t0) <= math.MaxFloat64 && math.Abs(t1) <= math.MaxFloat64) {
		return fmt.Errorf("ode: time span [%v, %v] must be finite", t0, t1)
	}
	if !(t1 >= t0) {
		return errors.New("ode: t1 must be >= t0")
	}
	if m := math.Max(math.Abs(t0), math.Abs(t1)); !(h >= math.Nextafter(m, math.Inf(1))-m) {
		return fmt.Errorf("ode: step size %v is below the spacing of floats at t = %v", h, m)
	}
	return nil
}

// Integrate advances x in place from t0 to t1 with fixed steps of size h
// (the final step is shortened to land exactly on t1). It returns the final
// time. h must be positive and finite, t0 and t1 finite with t1 >= t0.
func Integrate(s *RK4, f RHS, t0, t1 float64, x []float64, h float64) (float64, error) {
	if err := checkSpan(t0, t1, h); err != nil {
		return t0, err
	}
	t := t0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		s.Step(f, t, x, step)
		t += step
	}
	return t, nil
}

// Sample holds one trajectory point.
type Sample struct {
	T float64
	X []float64
}

// Trajectory integrates from t0 to t1 with fixed step h, recording the state
// every 'every' steps (and always the initial and final states). The initial
// state x is not modified; the returned samples own their storage.
func Trajectory(s *RK4, f RHS, t0, t1 float64, x []float64, h float64, every int) ([]Sample, error) {
	if err := checkSpan(t0, t1, h); err != nil {
		return nil, err
	}
	if every <= 0 {
		every = 1
	}
	cur := append([]float64(nil), x...)
	out := []Sample{{T: t0, X: append([]float64(nil), cur...)}}
	t := t0
	n := 0
	for t < t1 {
		step := h
		if t+step > t1 {
			step = t1 - t
		}
		s.Step(f, t, cur, step)
		t += step
		n++
		if n%every == 0 || t >= t1 {
			out = append(out, Sample{T: t, X: append([]float64(nil), cur...)})
		}
	}
	return out, nil
}

// MaxNorm returns the infinity norm of v, or NaN if any component is NaN.
func MaxNorm(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		} else if a != a {
			return a
		}
	}
	return m
}

// SteadyStateOptions configures SteadyState.
type SteadyStateOptions struct {
	// Step is the fixed integration step (default 0.5).
	Step float64
	// Tol is the convergence tolerance: the run stops when
	// ‖f(x)‖∞ <= Tol · max(1, ‖x‖∞) (default 1e-10).
	Tol float64
	// MaxTime bounds the simulated time (default 1e6).
	MaxTime float64
}

// checkEvery is the number of steps SteadyState takes between
// convergence checks.
const checkEvery = 16

func (o *SteadyStateOptions) defaults() {
	if o.Step <= 0 {
		o.Step = 0.5
	}
	if o.Tol <= 0 {
		o.Tol = 1e-10
	}
	if o.MaxTime <= 0 {
		o.MaxTime = 1e6
	}
}

// ErrNoConvergence is returned when relaxation hits MaxTime before the
// residual drops below tolerance.
var ErrNoConvergence = errors.New("ode: steady state not reached within MaxTime")

// SteadyState integrates dx/dt = f(x) from x until the residual ‖f(x)‖∞ is
// below tolerance, returning the fixed point and the simulated time spent.
// x is modified in place. The RHS must be autonomous in the sense that its
// explicit t-dependence vanishes in the long run (all fluid models here are
// autonomous). Step and MaxTime must pass Integrate's span check.
func SteadyState(s *RK4, f RHS, x []float64, opt SteadyStateOptions) (float64, error) {
	opt.defaults()
	if err := checkSpan(0, opt.MaxTime, opt.Step); err != nil {
		return 0, err
	}
	dim := len(x)
	resid := make([]float64, dim)
	t := 0.0
	for t < opt.MaxTime {
		for i := 0; i < checkEvery && t < opt.MaxTime; i++ {
			s.Step(f, t, x, opt.Step)
			t += opt.Step
		}
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return t, fmt.Errorf("ode: state diverged at t=%g", t)
			}
		}
		f(t, x, resid)
		if MaxNorm(resid) <= opt.Tol*math.Max(1, MaxNorm(x)) {
			return t, nil
		}
	}
	return t, ErrNoConvergence
}
