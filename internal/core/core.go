// Package core is the high-level facade over the multiple-file-downloading
// models: it names the four schemes the paper analyzes, couples the fluid
// parameters with the file-correlation model, and evaluates any scheme into
// the shared metrics types.
//
// A System describes one server–torrent deployment (Section 3.1): K files,
// a visiting rate λ₀, a per-file request probability p, and homogeneous
// peers with upload bandwidth μ, sharing efficiency η and seed departure
// rate γ. Example:
//
//	sys, _ := core.NewSystem(core.Config{
//	    Params: fluid.PaperParams, K: 10, Lambda0: 1, P: 0.9,
//	})
//	res, _ := sys.Evaluate(core.CMFSD, core.WithRho(0.1))
//	fmt.Println(res.AvgOnlinePerFile())
package core

import (
	"errors"
	"fmt"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/scheme"
)

// Scheme identifies one of the paper's downloading schemes. It aliases
// scheme.Scheme so core values flow directly into the scheme.New factory.
type Scheme = scheme.Scheme

// The two multiple-file schemes a deployment chooses between: the MFCD
// baseline and the paper's proposal (the scheme package names all four).
const (
	MFCD  = scheme.MFCD
	CMFSD = scheme.CMFSD
)

// Schemes lists all schemes in paper order.
var Schemes = scheme.Schemes

// Config describes a server–torrent system.
type Config struct {
	fluid.Params
	// K is the number of files.
	K int
	// Lambda0 is the web-server visiting rate λ₀.
	Lambda0 float64
	// P is the file correlation (per-file request probability).
	P float64
}

// System evaluates downloading schemes on one configuration.
type System struct {
	cfg  Config
	corr *correlation.Model
}

// NewSystem validates the configuration and returns a System.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	corr, err := correlation.New(cfg.K, cfg.P, cfg.Lambda0)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, corr: corr}, nil
}

// evalOptions collects per-call options.
type evalOptions struct {
	rho float64
}

// Option customizes Evaluate.
type Option func(*evalOptions)

// WithRho sets the CMFSD bandwidth allocation ratio ρ (ignored by the other
// schemes). The default is the paper's recommended initial setting ρ = 0.
func WithRho(rho float64) Option {
	return func(o *evalOptions) { o.rho = rho }
}

// Evaluate computes the steady-state per-class metrics for the scheme.
func (s *System) Evaluate(sc Scheme, opts ...Option) (*metrics.SchemeResult, error) {
	var o evalOptions
	for _, opt := range opts {
		opt(&o)
	}
	m, err := scheme.New(sc, s.cfg.Params, s.corr, scheme.Options{Rho: o.rho})
	if err != nil {
		return nil, err
	}
	return m.Evaluate()
}

// Comparison pairs a scheme with its evaluation.
type Comparison struct {
	Scheme Scheme
	Result *metrics.SchemeResult
}

// Compare evaluates several schemes on the same system.
func (s *System) Compare(schemes []Scheme, opts ...Option) ([]Comparison, error) {
	if len(schemes) == 0 {
		return nil, errors.New("core: no schemes to compare")
	}
	out := make([]Comparison, 0, len(schemes))
	for _, sc := range schemes {
		res, err := s.Evaluate(sc, opts...)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", sc, err)
		}
		out = append(out, Comparison{Scheme: sc, Result: res})
	}
	return out, nil
}

// Best returns the scheme with the lowest average online time per file.
func Best(comparisons []Comparison) (Comparison, error) {
	if len(comparisons) == 0 {
		return Comparison{}, errors.New("core: empty comparison")
	}
	best := comparisons[0]
	for _, c := range comparisons[1:] {
		if c.Result.AvgOnlinePerFile() < best.Result.AvgOnlinePerFile() {
			best = c
		}
	}
	return best, nil
}
