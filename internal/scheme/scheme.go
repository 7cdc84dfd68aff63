// Package scheme provides the unified constructor for the paper's four
// downloading schemes. Every scheme package exposes its own constructor
// with a slightly different signature (mtcd.New and mtsd.New take the
// fluid parameters and a correlation model; cmfsd.New additionally takes
// the allocation ratio ρ). Callers that dispatch on a Scheme value — the
// CLIs, the experiment generators, the sweep runner — go through New, the
// one switch over them, which returns a Model exposing the common Evaluate
// surface.
//
// New also decides where schemes coincide, once: MFCD is MTCD in the fluid
// model (Section 3.4), and CMFSD at p = 0, where no user requests a second
// file, is the single torrent MTSD is there.
//
// The concrete constructors remain available for callers that need the
// scheme-specific machinery (ODE right-hand sides, steady-state vectors,
// stability reports).
package scheme

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/cmfsd"
	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/mtcd"
	"mfdl/internal/mtsd"
)

// Scheme identifies one of the paper's downloading schemes.
type Scheme string

// The four schemes of the paper.
const (
	// MTCD: multi-torrent concurrent downloading (Section 3.2).
	MTCD Scheme = "MTCD"
	// MTSD: multi-torrent sequential downloading (Section 3.3).
	MTSD Scheme = "MTSD"
	// MFCD: multi-file torrent concurrent downloading (Section 3.4).
	MFCD Scheme = "MFCD"
	// CMFSD: collaborative multi-file torrent sequential downloading —
	// the paper's proposal (Section 3.5).
	CMFSD Scheme = "CMFSD"
)

// Schemes lists all schemes in paper order.
var Schemes = []Scheme{MTCD, MTSD, MFCD, CMFSD}

// Parse converts a string to a Scheme.
func Parse(s string) (Scheme, error) {
	for _, sc := range Schemes {
		if string(sc) == s {
			return sc, nil
		}
	}
	return "", fmt.Errorf("scheme: unknown scheme %q", s)
}

// Options carries the per-scheme knobs of New. The zero value is the
// paper's recommended initial setting for every scheme.
type Options struct {
	// Rho is the CMFSD bandwidth allocation ratio ρ ∈ [0, 1]; the other
	// schemes ignore it.
	Rho float64
	// Theta is the downloader abort rate θ ≥ 0 (Qiu–Srikant churn). All
	// four schemes honor it: θ = 0 keeps the paper's closed forms, θ > 0
	// switches each model to its numeric abort-aware steady state.
	Theta float64
}

// Model is the common evaluation surface of the four schemes: a
// constructed, validated model that can be solved into the shared metrics
// types.
type Model interface {
	// Evaluate computes the steady-state per-class metrics.
	Evaluate() (*metrics.SchemeResult, error)
}

// relabeled is another scheme's model reporting under this scheme's name.
type relabeled struct {
	Model
	name Scheme
}

func (r relabeled) Evaluate() (*metrics.SchemeResult, error) {
	res, err := r.Model.Evaluate()
	if err != nil {
		return nil, err
	}
	res.Scheme = string(r.name)
	return res, nil
}

// relabel builds scheme from's model to report as scheme as: where two
// schemes coincide in the fluid model, one model serves both names.
func relabel(from, as Scheme, params fluid.Params, corr *correlation.Model, opts Options) (Model, error) {
	m, err := New(from, params, corr, opts)
	if err != nil {
		return nil, err
	}
	return relabeled{m, as}, nil
}

// New constructs the model for the named scheme. It is the single dispatch
// point over the per-package constructors.
func New(s Scheme, params fluid.Params, corr *correlation.Model, opts Options) (Model, error) {
	if opts.Theta < 0 || math.IsNaN(opts.Theta) || math.IsInf(opts.Theta, 0) {
		return nil, fmt.Errorf("scheme: θ = %v must be a finite rate >= 0", opts.Theta)
	}
	switch s {
	case MTCD:
		m, err := mtcd.New(params, corr)
		if err != nil {
			return nil, err
		}
		m.Theta = opts.Theta
		return m, nil
	case MTSD:
		m, err := mtsd.New(params, corr)
		if err != nil {
			return nil, err
		}
		m.Theta = opts.Theta
		return m, nil
	case MFCD:
		// MFCD ≡ MTCD in the fluid model (Section 3.4).
		return relabel(MTCD, MFCD, params, corr, opts)
	case CMFSD:
		m, err := cmfsd.New(params, corr, opts.Rho)
		if errors.Is(err, cmfsd.ErrEmptyTorrent) {
			// At p = 0 no user requests a second file, so no peer ever
			// serves a virtual seed: CMFSD is the single torrent, as MTSD is.
			return relabel(MTSD, CMFSD, params, corr, opts)
		}
		if err != nil {
			return nil, err
		}
		m.Theta = opts.Theta
		return m, nil
	default:
		return nil, fmt.Errorf("scheme: unknown scheme %q", s)
	}
}

// Evaluate constructs and solves the named scheme in one call.
func Evaluate(s Scheme, params fluid.Params, corr *correlation.Model, opts Options) (*metrics.SchemeResult, error) {
	m, err := New(s, params, corr, opts)
	if err != nil {
		return nil, err
	}
	return m.Evaluate()
}
