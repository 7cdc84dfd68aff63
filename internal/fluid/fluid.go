// Package fluid provides the shared fluid-model framework used by every
// downloading-scheme model in this repository (Section 2 of the paper): a
// Model interface over autonomous ODE systems, steady-state solvers,
// eigenvalue-based stability reports (over ode.Jacobian), and the
// Qiu–Srikant single-torrent model with its closed forms.
//
// Conventions: populations are continuous ("fluid") peer counts; time is in
// the same unit as 1/μ (the paper uses file-per-time-unit bandwidths, e.g.
// μ = 0.02 means a peer uploads one full file per 50 time units).
package fluid

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/numeric/linalg"
	"mfdl/internal/numeric/ode"
)

// Params holds the per-peer rates shared by all models (Table 1 of the
// paper, plus the seed-departure rate).
type Params struct {
	// Mu is the peer upload bandwidth μ (files per time unit).
	Mu float64 `json:"mu"`
	// Eta is the downloader sharing efficiency η ∈ (0, 1]; the paper uses
	// 0.5 (a downloader uploads at half the effectiveness of a seed).
	Eta float64 `json:"eta"`
	// Gamma is the seed departure rate γ.
	Gamma float64 `json:"gamma"`
}

// PaperParams are the parameter values used in every figure of the paper.
var PaperParams = Params{Mu: 0.02, Eta: 0.5, Gamma: 0.05}

// Validate checks that the rates are positive and finite; NaN fails
// every check.
func (p Params) Validate() error {
	if !(p.Mu > 0) || math.IsInf(p.Mu, 1) {
		return fmt.Errorf("fluid: μ = %v must be positive and finite", p.Mu)
	}
	if !(p.Eta > 0 && p.Eta <= 1) {
		return fmt.Errorf("fluid: η = %v outside (0,1]", p.Eta)
	}
	if !(p.Gamma > 0) || math.IsInf(p.Gamma, 1) {
		return fmt.Errorf("fluid: γ = %v must be positive and finite", p.Gamma)
	}
	return nil
}

// UploadConstrained reports whether the system is in the regime the paper's
// closed forms require: seeds leave fast enough that download time is
// governed by upload capacity (γ > μ).
func (p Params) UploadConstrained() bool { return p.Gamma > p.Mu }

// Model is an autonomous fluid model.
type Model interface {
	// Dim returns the state dimension.
	Dim() int
	// RHS evaluates dx/dt into dst.
	RHS(t float64, x, dst []float64)
	// InitialState returns a fresh, strictly positive starting state for
	// relaxation (small seed populations avoid 0/0 in share terms).
	InitialState() []float64
}

// SteadyState relaxes the model to its fixed point with RK4 and returns the
// steady-state vector.
func SteadyState(m Model, opt ode.SteadyStateOptions) ([]float64, error) {
	x := m.InitialState()
	if len(x) != m.Dim() {
		return nil, errors.New("fluid: InitialState dimension mismatch")
	}
	stepper := ode.NewRK4(m.Dim())
	if _, err := ode.SteadyState(stepper, m.RHS, x, opt); err != nil {
		return nil, err
	}
	if err := clampDust(x); err != nil {
		return nil, err
	}
	return x, nil
}

// clampDust zeroes the tiny negative dust (above −1e-6) that relaxation
// or Newton can leave in components whose fixed point is 0, and rejects a
// genuinely negative component.
func clampDust(x []float64) error {
	for i, v := range x {
		if v < 0 {
			if v > -1e-6 {
				x[i] = 0
				continue
			}
			return fmt.Errorf("fluid: negative steady-state component %d = %v", i, v)
		}
	}
	return nil
}

// SteadyStateHybrid finds the fixed point by a short RK4 relaxation into
// the basin of attraction followed by damped-Newton polishing — typically
// an order of magnitude faster than relaxing all the way down for the
// larger models (CMFSD's 65 states, the mixed-population variants). It
// falls back to full relaxation when Newton stalls.
func SteadyStateHybrid(m Model, opt ode.SteadyStateOptions) ([]float64, error) {
	coarse := opt
	if coarse.Tol <= 0 || coarse.Tol < 1e-4 {
		coarse.Tol = 1e-4
	}
	x := m.InitialState()
	if len(x) != m.Dim() {
		return nil, errors.New("fluid: InitialState dimension mismatch")
	}
	stepper := ode.NewRK4(m.Dim())
	if _, err := ode.SteadyState(stepper, m.RHS, x, coarse); err != nil {
		return nil, err
	}
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-12
	}
	polished := append([]float64(nil), x...)
	if ode.NewtonSteadyState(m.RHS, polished, tol) == nil && clampDust(polished) == nil {
		return polished, nil
	}
	// Newton left the physical region or stalled: finish by relaxation.
	if _, err := ode.SteadyState(stepper, m.RHS, x, opt); err != nil {
		return nil, err
	}
	if err := clampDust(x); err != nil {
		return nil, err
	}
	return x, nil
}

// StabilityReport describes the linearization of a model at a fixed point.
type StabilityReport struct {
	// Eigenvalues of the Jacobian, sorted by descending real part.
	Eigenvalues []linalg.Eigenvalue
	// Abscissa is the largest real part; negative means asymptotically
	// stable.
	Abscissa float64
	// Stable is Abscissa < 0.
	Stable bool
}

// Stability linearizes the model at state x and reports eigenvalue-based
// local stability.
func Stability(m Model, x []float64) (*StabilityReport, error) {
	n := m.Dim()
	j := linalg.NewMatrix(n, n)
	ode.Jacobian(m.RHS, x, 1e-6, j, make([]float64, n), make([]float64, n), make([]float64, n))
	eigs, err := linalg.Eigenvalues(j)
	if err != nil {
		return nil, err
	}
	abscissa := linalg.MaxRealPart(eigs)
	return &StabilityReport{Eigenvalues: eigs, Abscissa: abscissa, Stable: abscissa < 0}, nil
}

// Residual returns ‖f(x)‖∞ for the model at x — a cheap fixed-point check.
func Residual(m Model, x []float64) float64 {
	dst := make([]float64, m.Dim())
	m.RHS(0, x, dst)
	return ode.MaxNorm(dst)
}
