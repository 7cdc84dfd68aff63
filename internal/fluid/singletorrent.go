package fluid

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/numeric/ode"
)

// SingleTorrent is the Qiu–Srikant single-file single-torrent fluid model
// (SIGCOMM 2004, Section 2 of the paper):
//
//	dx/dt = λ − θ·x − min(c·x, μ(η·x + y))
//	dy/dt = min(c·x, μ(η·x + y)) − γ·y
//
// with x downloaders and y seeds. The paper's Eq. (3) is the special case
// θ = 0, c = ∞ (download bandwidth never binds); that case has the closed
// forms implemented by Params.SingleDownloadTime and SteadyStateClosed.
type SingleTorrent struct {
	Params
	// Lambda is the peer arrival rate λ.
	Lambda float64
	// C is the per-peer download bandwidth c; 0 or +Inf means
	// unconstrained (the paper's assumption).
	C float64
	// Theta is the downloader abort rate θ; 0 in the paper.
	Theta float64
}

// NewSingleTorrent returns the paper's Eq. (3) instance (θ = 0, c
// unconstrained) for the given parameters.
func NewSingleTorrent(p Params, lambda float64) (*SingleTorrent, error) {
	m := &SingleTorrent{Params: p, Lambda: lambda}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate extends Params.Validate with arrival-rate checks.
func (m *SingleTorrent) Validate() error {
	if err := m.Params.Validate(); err != nil {
		return err
	}
	if m.Lambda <= 0 {
		return fmt.Errorf("fluid: λ = %v must be positive", m.Lambda)
	}
	if m.C < 0 {
		return fmt.Errorf("fluid: c = %v must be non-negative", m.C)
	}
	if m.Theta < 0 {
		return fmt.Errorf("fluid: θ = %v must be non-negative", m.Theta)
	}
	return nil
}

// Dim implements Model.
func (m *SingleTorrent) Dim() int { return 2 }

// downloadCapacity returns the effective service rate min(c·x, μ(ηx+y)).
func (m *SingleTorrent) downloadCapacity(x, y float64) float64 {
	up := m.Mu * (m.Eta*x + y)
	if m.C > 0 && !math.IsInf(m.C, 1) {
		if dn := m.C * x; dn < up {
			return dn
		}
	}
	return up
}

// RHS implements Model.
func (m *SingleTorrent) RHS(_ float64, s, dst []float64) {
	x, y := s[0], s[1]
	if x < 0 {
		x = 0
	}
	if y < 0 {
		y = 0
	}
	served := m.downloadCapacity(x, y)
	dst[0] = m.Lambda - m.Theta*x - served
	dst[1] = served - m.Gamma*y
}

// InitialState implements Model.
func (m *SingleTorrent) InitialState() []float64 {
	return []float64{m.Lambda, m.Lambda / m.Gamma * 0.1}
}

// SteadyStateNumeric relaxes the model to its fixed point for the general
// case (θ > 0 or a finite download bandwidth c) where no closed form
// exists. The RHS is homogeneous of degree 1 in (λ, x, y), so the
// per-peer times x/λ and (x+y)/λ are λ-invariant; callers that only need
// times can solve at λ = 1 for the best numerical conditioning. The
// solver runs at the ode.SteadyStateOptions defaults.
func (m *SingleTorrent) SteadyStateNumeric() (x, y float64, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, err
	}
	ss, err := SteadyStateHybrid(m, ode.SteadyStateOptions{})
	if err != nil {
		return 0, 0, err
	}
	return ss[0], ss[1], nil
}

// ErrNotUploadConstrained is returned by the closed forms when γ <= μ, where
// the paper's expressions turn negative (seeds then accumulate and the
// download time is governed by the seed residence time instead).
var ErrNotUploadConstrained = errors.New("fluid: closed form requires γ > μ (upload-constrained regime)")

// SteadyStateClosed returns the analytic fixed point (x*, y*) of Eq. (3)
// for θ = 0, c unconstrained.
func (m *SingleTorrent) SteadyStateClosed() (x, y float64, err error) {
	if !m.UploadConstrained() {
		return 0, 0, ErrNotUploadConstrained
	}
	y = m.Lambda / m.Gamma
	x = m.Lambda * (m.Gamma - m.Mu) / (m.Mu * m.Eta * m.Gamma)
	return x, y, nil
}

// SingleDownloadTime returns the paper's Eq. (4) average download time
// T = (γ−μ)/(γμη) of the Qiu–Srikant single torrent (Little's law on the
// downloader population). It is the single-torrent limit every scheme
// reduces to: MTSD's per-file time, and MTCD's once no user requests a
// second file.
func (p Params) SingleDownloadTime() (float64, error) {
	if !p.UploadConstrained() {
		return 0, ErrNotUploadConstrained
	}
	return (p.Gamma - p.Mu) / (p.Gamma * p.Mu * p.Eta), nil
}
