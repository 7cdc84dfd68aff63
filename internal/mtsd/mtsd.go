// Package mtsd implements Multi-Torrent Sequential Downloading (Section 3.3
// of the paper, Eqs. 3–4): a user who requested i files enters one torrent
// at a time with its full bandwidth, so each torrent behaves exactly like
// the Qiu–Srikant single torrent and the user's total times are i times the
// single-torrent times:
//
//	T_i^MTSD = i·(T + 1/γ),  T = (γ−μ)/(γμη),  γ > μ.
package mtsd

import (
	"fmt"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
)

// Scheme is the scheme name reported in results.
const Scheme = "MTSD"

// Model couples the fluid parameters with a file-correlation model.
type Model struct {
	fluid.Params
	Corr *correlation.Model
	// Theta is the downloader abort rate θ ≥ 0. θ = 0 keeps the paper's
	// closed form; θ > 0 solves the single-torrent model numerically with
	// the abort term.
	Theta float64
}

// New validates and returns an MTSD model.
func New(p fluid.Params, corr *correlation.Model) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if corr == nil {
		return nil, fmt.Errorf("mtsd: nil correlation model")
	}
	if err := corr.Validate(); err != nil {
		return nil, err
	}
	return &Model{Params: p, Corr: corr}, nil
}

// Evaluate returns the steady-state per-class metrics (Eq. 4). Every class
// has the same per-file times; the correlation model only weights the
// average.
func (m *Model) Evaluate() (*metrics.SchemeResult, error) {
	t, seedT := 0.0, 0.0
	if m.Theta > 0 {
		// With aborts the torrent is the Qiu–Srikant model with −θ·x.
		// Its RHS is homogeneous of degree 1 in (λ, x, y), so per-file
		// times x/λ and seed residence y/λ are λ-invariant; solve at
		// λ = 1. y/λ is the completion fraction times 1/γ — aborters
		// never seed, so the per-file online time shrinks accordingly.
		st := &fluid.SingleTorrent{Params: m.Params, Lambda: 1, Theta: m.Theta}
		x, y, err := st.SteadyStateNumeric()
		if err != nil {
			return nil, fmt.Errorf("mtsd: θ>0 relaxation: %w", err)
		}
		t, seedT = x, y
	} else {
		var err error
		t, err = m.SingleDownloadTime()
		if err != nil {
			return nil, err
		}
		seedT = 1 / m.Gamma
	}
	res := &metrics.SchemeResult{Scheme: Scheme}
	for i := 1; i <= m.Corr.K; i++ {
		fi := float64(i)
		res.Classes = append(res.Classes, metrics.PerClass{
			Class:        i,
			EntryRate:    m.Corr.UserRate(i),
			DownloadTime: fi * t,
			OnlineTime:   fi * (t + seedT),
		})
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}
