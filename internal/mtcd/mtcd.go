// Package mtcd implements Multi-Torrent Concurrent Downloading (Section 3.2
// of the paper): a user who requested i files runs one peer in each of the
// i torrents simultaneously, splitting its upload and download bandwidth i
// ways. The per-torrent fluid model is Eq. (1); its steady state is the
// closed form Eq. (2):
//
//	x_j^i = i·λ_j^i · A,  A = (γ·Σ_l λ_j^l − μ·Σ_l λ_j^l/l) / (γμη·Σ_l λ_j^l)
//	y_j^i = λ_j^i / γ
//
// giving the class-i user online time T_i = i·A + 1/γ (Eq. 2 via Little's
// law). The same closed form evaluates MFCD (Section 3.4), which the paper
// shows is equivalent in the fluid model.
//
// Because a class-i user's i peers run concurrently, the user's wall-clock
// download time equals the per-peer residence time i·A, and the per-file
// download time A is identical for all classes — the fairness property the
// paper points out in Figure 3.
package mtcd

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/numeric/ode"
)

// Scheme is the scheme name reported in results.
const Scheme = "MTCD"

// Model couples the fluid parameters with a file-correlation model.
type Model struct {
	fluid.Params
	Corr *correlation.Model
	// Theta is the downloader abort rate θ ≥ 0 (Qiu–Srikant churn).
	// θ = 0 is the paper's assumption and keeps the closed form Eq. (2);
	// θ > 0 switches Evaluate to numeric relaxation of Eq. (1) with an
	// abort term −θ·x in every downloader class.
	Theta float64
}

// New validates and returns an MTCD model.
func New(p fluid.Params, corr *correlation.Model) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if corr == nil {
		return nil, errors.New("mtcd: nil correlation model")
	}
	if err := corr.Validate(); err != nil {
		return nil, err
	}
	return &Model{Params: p, Corr: corr}, nil
}

// ErrNotSeedLimited is returned when γ·Σλ ≤ μ·Σλ/l, outside the regime in
// which Eq. (2) yields non-negative downloader populations.
var ErrNotSeedLimited = errors.New("mtcd: Eq. (2) requires γ·Σλ > μ·Σ(λ/l)")

// SharedFactor returns A, the class-independent per-file download time of
// Eq. (2). For p → 0 it degenerates to the single-torrent T = (γ−μ)/(γμη);
// that limit is returned when the total torrent arrival rate vanishes.
func (m *Model) SharedFactor() (float64, error) {
	sum, weighted := 0.0, 0.0
	for l := 1; l <= m.Corr.K; l++ {
		r := m.Corr.TorrentClassRate(l)
		sum += r
		weighted += r / float64(l)
	}
	if sum <= 0 {
		// p = 0 limit: only class-1 mass remains and A → T.
		return m.SingleDownloadTime()
	}
	a := (m.Gamma*sum - m.Mu*weighted) / (m.Gamma * m.Mu * m.Eta * sum)
	if a <= 0 {
		return 0, ErrNotSeedLimited
	}
	return a, nil
}

// Evaluate returns the steady-state per-class metrics: the closed form
// Eq. (2) for θ = 0, numeric relaxation with the abort term for θ > 0.
func (m *Model) Evaluate() (*metrics.SchemeResult, error) {
	if m.Theta > 0 {
		return m.evaluateTheta()
	}
	a, err := m.SharedFactor()
	if err != nil {
		return nil, err
	}
	res := &metrics.SchemeResult{Scheme: Scheme}
	for i := 1; i <= m.Corr.K; i++ {
		fi := float64(i)
		res.Classes = append(res.Classes, metrics.PerClass{
			Class:        i,
			EntryRate:    m.Corr.UserRate(i),
			DownloadTime: fi * a,
			OnlineTime:   fi*a + 1/m.Gamma,
		})
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// evaluateTheta handles θ > 0: it relaxes Eq. (1) with the −θ·x abort
// term to its fixed point and converts populations to times via Little's
// law. A class-i user's i peers run concurrently, so its wall-clock
// download time equals one peer's residence x/λ, and the seed population
// adds y/λ (which equals the completion fraction times 1/γ: aborters
// never seed).
func (m *Model) evaluateTheta() (*metrics.SchemeResult, error) {
	sum := 0.0
	for l := 1; l <= m.Corr.K; l++ {
		sum += m.Corr.TorrentClassRate(l)
	}
	res := &metrics.SchemeResult{Scheme: Scheme}
	if sum <= 0 {
		// p → 0 limit: each torrent degenerates to a Qiu–Srikant single
		// torrent with aborts. Its RHS is homogeneous of degree 1 in
		// (λ, x, y), so per-file times are λ-invariant; solve at λ = 1.
		st := &fluid.SingleTorrent{Params: m.Params, Lambda: 1, Theta: m.Theta}
		x, y, err := st.SteadyStateNumeric()
		if err != nil {
			return nil, fmt.Errorf("mtcd: θ>0 single-torrent limit: %w", err)
		}
		for i := 1; i <= m.Corr.K; i++ {
			fi := float64(i)
			res.Classes = append(res.Classes, metrics.PerClass{
				Class: i, EntryRate: m.Corr.UserRate(i),
				DownloadTime: fi * x,
				OnlineTime:   fi*x + y,
			})
		}
		return res, res.Validate()
	}
	ss, err := fluid.SteadyStateHybrid(m.NewODE(), ode.SteadyStateOptions{})
	if err != nil {
		return nil, fmt.Errorf("mtcd: θ>0 relaxation: %w", err)
	}
	k := m.Corr.K
	x, y := ss[:k], ss[k:]
	for i := 1; i <= k; i++ {
		rate := m.Corr.TorrentClassRate(i)
		pc := metrics.PerClass{Class: i, EntryRate: m.Corr.UserRate(i)}
		if rate > 0 {
			pc.DownloadTime = x[i-1] / rate
			pc.OnlineTime = (x[i-1] + y[i-1]) / rate
		} else {
			pc.DownloadTime = math.NaN()
			pc.OnlineTime = math.NaN()
		}
		res.Classes = append(res.Classes, pc)
	}
	return res, res.Validate()
}

// SteadyStatePopulations returns the closed-form per-class downloader and
// seed populations (x_j^i, y_j^i) in one torrent, indexed by class-1 at
// index 0.
func (m *Model) SteadyStatePopulations() (x, y []float64, err error) {
	a, err := m.SharedFactor()
	if err != nil {
		return nil, nil, err
	}
	x = make([]float64, m.Corr.K)
	y = make([]float64, m.Corr.K)
	for i := 1; i <= m.Corr.K; i++ {
		r := m.Corr.TorrentClassRate(i)
		x[i-1] = float64(i) * r * a
		y[i-1] = r / m.Gamma
	}
	return x, y, nil
}

// ODE exposes the per-torrent fluid model Eq. (1) as a fluid.Model with
// state [x^1..x^K, y^1..y^K] so that the closed form can be cross-checked
// by relaxation and the fixed point's stability analyzed.
type ODE struct {
	m *Model
}

// NewODE wraps the model's Eq. (1) dynamics.
func (m *Model) NewODE() *ODE { return &ODE{m: m} }

// Dim implements fluid.Model.
func (o *ODE) Dim() int { return 2 * o.m.Corr.K }

// RHS implements fluid.Model: Eq. (1) for one torrent.
func (o *ODE) RHS(_ float64, s, dst []float64) {
	k := o.m.Corr.K
	mu, eta, gamma := o.m.Mu, o.m.Eta, o.m.Gamma
	// Share denominator Σ_l x^l/l and seed service Σ_l (μ/l)·y^l.
	shareDen, seedService := 0.0, 0.0
	for l := 1; l <= k; l++ {
		x := s[l-1]
		if x < 0 {
			x = 0
		}
		y := s[k+l-1]
		if y < 0 {
			y = 0
		}
		shareDen += x / float64(l)
		seedService += mu / float64(l) * y
	}
	for i := 1; i <= k; i++ {
		x := s[i-1]
		if x < 0 {
			x = 0
		}
		y := s[k+i-1]
		if y < 0 {
			y = 0
		}
		fromPeers := eta * mu / float64(i) * x
		fromSeeds := 0.0
		if shareDen > 0 {
			fromSeeds = (x / float64(i)) / shareDen * seedService
		}
		served := fromPeers + fromSeeds
		dst[i-1] = o.m.Corr.TorrentClassRate(i) - o.m.Theta*x - served
		dst[k+i-1] = served - gamma*y
	}
}

// InitialState implements fluid.Model.
func (o *ODE) InitialState() []float64 {
	k := o.m.Corr.K
	s := make([]float64, 2*k)
	for i := 1; i <= k; i++ {
		r := o.m.Corr.TorrentClassRate(i)
		s[i-1] = r*10 + 1e-6
		s[k+i-1] = r/o.m.Gamma*0.5 + 1e-6
	}
	return s
}

var _ fluid.Model = (*ODE)(nil)

// SteadyStateODE relaxes Eq. (1) numerically and returns per-class (x, y),
// for cross-validation against the closed form.
func (m *Model) SteadyStateODE(opt ode.SteadyStateOptions) (x, y []float64, err error) {
	o := m.NewODE()
	ss, err := fluid.SteadyState(o, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("mtcd: relaxation failed: %w", err)
	}
	k := m.Corr.K
	return ss[:k], ss[k:], nil
}
