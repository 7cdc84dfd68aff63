// Package correlation implements the file-correlation model of Section 4.1
// of the paper: a server publishes K files; a visiting user requests each
// file independently with probability p, so users requesting exactly i of
// the K files arrive at rate
//
//	λ_i = λ₀·C(K,i)·pⁱ·(1−p)^(K−i),   i = 1..K,
//
// and, for any particular torrent, the entry rate of class-i peers (peers
// whose user requested i files including this one) is
//
//	λ_j^i = λ₀·C(K−1,i−1)·pⁱ·(1−p)^(K−i).
//
// Users with i = 0 never enter the system and are excluded from all rates.
package correlation

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/stats"
)

// Model is a binomial file-correlation model. Build it with New: the
// exported fields are read-only afterwards, because New tabulates the class
// rates λ₁..λ_K from them once and every rate accessor reads that table.
type Model struct {
	// K is the number of files published in the system.
	K int
	// P is the per-file request probability (the "file correlation").
	P float64
	// Lambda0 is the web-server visiting rate λ₀.
	Lambda0 float64

	// rates[i-1] is λ_i and cdf[i-1] is λ_1+…+λ_i, computed by New.
	rates, cdf []float64
}

// New validates and returns a correlation model with its class rates
// λ_i = λ₀·BinomialPMF(K, i, p) and their running sums tabulated.
func New(k int, p, lambda0 float64) (*Model, error) {
	m := &Model{K: k, P: p, Lambda0: lambda0}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.rates = make([]float64, k)
	m.cdf = make([]float64, k)
	acc := 0.0
	for i := range m.rates {
		m.rates[i] = lambda0 * stats.BinomialPMF(k, i+1, p)
		acc += m.rates[i]
		m.cdf[i] = acc
	}
	return m, nil
}

// Validate checks the model parameters; NaN fails every check.
func (m *Model) Validate() error {
	if m.K < 1 {
		return errors.New("correlation: K must be >= 1")
	}
	if !(m.P >= 0 && m.P <= 1) {
		return fmt.Errorf("correlation: p = %v outside [0,1]", m.P)
	}
	if !(m.Lambda0 > 0) || math.IsInf(m.Lambda0, 1) {
		return fmt.Errorf("correlation: λ₀ = %v must be positive and finite", m.Lambda0)
	}
	return nil
}

// UserRate returns λ_i, the arrival rate of users requesting exactly i
// files, for i in 1..K (0 outside that range).
func (m *Model) UserRate(i int) float64 {
	if i < 1 || i > m.K {
		return 0
	}
	return m.rates[i-1]
}

// TorrentClassRate returns λ_j^i, the entry rate of class-i peers into one
// particular torrent, for i in 1..K (0 outside that range). By symmetry it
// is the same for every torrent j.
func (m *Model) TorrentClassRate(i int) float64 {
	if i < 1 || i > m.K {
		return 0
	}
	// λ₀·C(K−1,i−1)·pⁱ·(1−p)^(K−i) = λ_i · i / K  (each class-i user joins
	// i of the K torrents chosen uniformly).
	return m.UserRate(i) * float64(i) / float64(m.K)
}

// TotalUserRate returns Σ_{i≥1} λ_i = λ₀·(1−(1−p)^K), the rate of users who
// request at least one file.
func (m *Model) TotalUserRate() float64 { return m.cdf[m.K-1] }

// Class maps u uniform on [0,1) to a user class drawn ∝ λ_i: the first i
// with u·Σλ ≤ λ_1+…+λ_i. Both simulators draw arrivals' classes with it.
func (m *Model) Class(u float64) int {
	x := u * m.TotalUserRate()
	for i, c := range m.cdf {
		if x <= c {
			return i + 1
		}
	}
	return m.K
}
