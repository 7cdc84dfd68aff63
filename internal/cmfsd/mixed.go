package cmfsd

import (
	"errors"
	"fmt"
	"math"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/numeric/ode"
)

// Group is one sub-population of a mixed CMFSD torrent, with its own
// bandwidth allocation ratio. The paper's cheating peers (Section 4.3) are
// the special case Rho = 1: they "refuse to upload chunks of the files
// they have finished via the virtual seeds" — equivalently, they quit and
// rejoin as fresh single-file peers.
type Group struct {
	// Name labels the group ("obedient", "cheater").
	Name string
	// Fraction is the share of arrivals belonging to this group.
	Fraction float64
	// Rho is the group's bandwidth allocation ratio.
	Rho float64
}

// Mixed is Eq. (5) generalized to several coexisting peer groups that share
// one multi-file torrent but play different ρ. All groups draw from the
// same virtual-seed + real-seed service pool (assumption 2 treats every
// downloader identically), so the obedient groups' collaboration subsidizes
// the cheaters — the effect the Adapt mechanism exists to police.
type Mixed struct {
	fluid.Params
	Corr   *correlation.Model
	Groups []Group
}

// NewMixed validates and returns a mixed-population model. Fractions must
// sum to 1. Every range test is written so that NaN fails it.
func NewMixed(p fluid.Params, corr *correlation.Model, groups []Group) (*Mixed, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if corr == nil {
		return nil, errors.New("cmfsd: nil correlation model")
	}
	if err := corr.Validate(); err != nil {
		return nil, err
	}
	if corr.P == 0 {
		return nil, ErrEmptyTorrent
	}
	if len(groups) == 0 {
		return nil, errors.New("cmfsd: no groups")
	}
	sum := 0.0
	for _, g := range groups {
		if !(g.Fraction >= 0 && g.Fraction <= 1) {
			return nil, fmt.Errorf("cmfsd: group %q fraction %v outside [0,1]", g.Name, g.Fraction)
		}
		if !(g.Rho >= 0 && g.Rho <= 1) {
			return nil, fmt.Errorf("cmfsd: group %q ρ = %v outside [0,1]", g.Name, g.Rho)
		}
		sum += g.Fraction
	}
	if !(math.Abs(sum-1) <= 1e-9) {
		return nil, fmt.Errorf("cmfsd: group fractions sum to %v, want 1", sum)
	}
	return &Mixed{Params: p, Corr: corr, Groups: groups}, nil
}

// perGroup is the per-group state block size: K(K+1)/2 downloader cells
// plus K seed cells.
func (m *Mixed) perGroup() int {
	k := m.Corr.K
	return k*(k+1)/2 + k
}

// Dim implements fluid.Model.
func (m *Mixed) Dim() int { return len(m.Groups) * m.perGroup() }

// XIndex returns the state index of group g's x^{i,j}.
func (m *Mixed) XIndex(g, i, j int) int {
	if g < 0 || g >= len(m.Groups) || j < 1 || i < j || i > m.Corr.K {
		panic(fmt.Sprintf("cmfsd: XIndex(%d,%d,%d) out of range", g, i, j))
	}
	return g*m.perGroup() + (i-1)*i/2 + (j - 1)
}

// YIndex returns the state index of group g's y^i.
func (m *Mixed) YIndex(g, i int) int {
	if g < 0 || g >= len(m.Groups) || i < 1 || i > m.Corr.K {
		panic(fmt.Sprintf("cmfsd: YIndex(%d,%d) out of range", g, i))
	}
	return g*m.perGroup() + m.Corr.K*(m.Corr.K+1)/2 + (i - 1)
}

// RHS implements fluid.Model: Eq. (5) with group-indexed P, one shared
// service pool.
func (m *Mixed) RHS(_ float64, s, dst []float64) {
	eq5(&m.Params, m.Corr, 0, m.Groups, s, dst)
}

// InitialState implements fluid.Model.
func (m *Mixed) InitialState() []float64 {
	s := make([]float64, m.Dim())
	for g := range m.Groups {
		for i := 1; i <= m.Corr.K; i++ {
			rate := m.Groups[g].Fraction * m.Corr.UserRate(i)
			for j := 1; j <= i; j++ {
				s[m.XIndex(g, i, j)] = rate*20 + 1e-7
			}
			s[m.YIndex(g, i)] = rate/m.Gamma*0.5 + 1e-7
		}
	}
	return s
}

var _ fluid.Model = (*Mixed)(nil)

// GroupResult pairs one group with its per-class metrics.
type GroupResult struct {
	Group  Group
	Result *metrics.SchemeResult
}

// MixedResult is the steady-state evaluation of a mixed torrent.
type MixedResult struct {
	Groups []GroupResult
}

// AvgOnlinePerFile aggregates the paper's metric over every group's
// classes, group by group.
func (r *MixedResult) AvgOnlinePerFile() float64 {
	var all metrics.SchemeResult
	for _, g := range r.Groups {
		all.Classes = append(all.Classes, g.Result.Classes...)
	}
	return all.AvgOnlinePerFile()
}

// Evaluate solves the mixed model (hybrid relax-then-Newton) and reports
// per-group metrics.
func (m *Mixed) Evaluate() (*MixedResult, error) {
	ss, err := fluid.SteadyStateHybrid(m, eq5Options(ode.SteadyStateOptions{}))
	if err != nil {
		return nil, err
	}
	out := &MixedResult{}
	for g, grp := range m.Groups {
		res := &metrics.SchemeResult{Scheme: Scheme + "/" + grp.Name}
		for i := 1; i <= m.Corr.K; i++ {
			rate := grp.Fraction * m.Corr.UserRate(i)
			pc := metrics.PerClass{Class: i, EntryRate: rate}
			if rate > 0 {
				total := 0.0
				for j := 1; j <= i; j++ {
					total += ss[m.XIndex(g, i, j)]
				}
				pc.DownloadTime = total / rate
				pc.OnlineTime = pc.DownloadTime + 1/m.Gamma
			} else {
				pc.DownloadTime = math.NaN()
				pc.OnlineTime = math.NaN()
			}
			res.Classes = append(res.Classes, pc)
		}
		out.Groups = append(out.Groups, GroupResult{Group: grp, Result: res})
	}
	return out, nil
}
