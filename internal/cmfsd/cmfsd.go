// Package cmfsd implements Collaborative Multi-File torrent Sequential
// Downloading, the paper's proposed scheme (Section 3.5, Eq. 5).
//
// Under CMFSD, K interest-correlated files live in one torrent with K
// subtorrents. A class-i peer (requesting i files) downloads them
// sequentially with its full download bandwidth. While downloading file j,
// a peer that has already completed j−1 ≥ 1 files splits its upload: a
// fraction ρ plays tit-for-tat in its current subtorrent, and the remaining
// 1−ρ serves a completed file as a "virtual seed".
//
// State: x^{i,j}(t) = class-i peers downloading their j-th file (1 ≤ j ≤ i),
// y^i(t) = class-i real seeds. With
//
//	P(i,j) = 1 if i = 1 or j = 1, else ρ,
//	S^{i,j} = μ·x^{i,j}·(Σ(1−P(l,m))x^{l,m} + Σy^l) / Σx^{l,m},
//
// the dynamics are Eq. (5):
//
//	dx^{i,1}/dt = λ_i − μηP(i,1)x^{i,1} − S^{i,1}
//	dx^{i,j}/dt = μηP(i,j−1)x^{i,j−1} + S^{i,j−1}
//	              − μηP(i,j)x^{i,j} − S^{i,j}       (1 < j ≤ i)
//	dy^i/dt     = μηP(i,i)x^{i,i} + S^{i,i} − γ·y^i
//
// with class entry rates λ_i = λ₀·C(K,i)·pⁱ·(1−p)^{K−i}. The steady state
// has no tractable closed form; it is obtained by RK4 relaxation (the
// hand-rolled integrator in internal/numeric/ode).
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

// Scheme is the scheme name reported in results.
const Scheme = "CMFSD"

// ErrEmptyTorrent is New's and NewMixed's refusal of p = 0, checked after
// every other input: no user arrives, so Eq. (5) has no downloader mass.
var ErrEmptyTorrent = errors.New("cmfsd: p = 0 gives an empty torrent")

// Model is the CMFSD fluid model for one multi-file torrent.
type Model struct {
	fluid.Params
	Corr *correlation.Model
	// Rho is the bandwidth allocation ratio ρ ∈ [0,1]: the fraction of a
	// collaborating downloader's upload spent on tit-for-tat in its
	// current subtorrent (1−ρ goes to its virtual seed). ρ = 1 disables
	// collaboration; the paper shows the system then performs as MFCD.
	Rho float64
	// Theta is the downloader abort rate θ ≥ 0: every downloader group
	// x^{i,j} additionally drains at θ·x^{i,j} (peers give up mid-
	// sequence and leave without seeding). θ = 0 is the paper's Eq. (5).
	Theta float64
}

// New validates and returns a CMFSD model.
func New(p fluid.Params, corr *correlation.Model, rho float64) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if corr == nil {
		return nil, errors.New("cmfsd: nil correlation model")
	}
	if err := corr.Validate(); err != nil {
		return nil, err
	}
	if !(rho >= 0 && rho <= 1) {
		return nil, fmt.Errorf("cmfsd: ρ = %v outside [0,1]", rho)
	}
	if corr.P == 0 {
		return nil, ErrEmptyTorrent
	}
	return &Model{Params: p, Corr: corr, Rho: rho}, nil
}

// Dim implements fluid.Model: K(K+1)/2 downloader groups plus K seed
// classes.
func (m *Model) Dim() int {
	k := m.Corr.K
	return k*(k+1)/2 + k
}

// XIndex returns the state index of x^{i,j} (1 ≤ j ≤ i ≤ K).
func (m *Model) XIndex(i, j int) int {
	if j < 1 || i < j || i > m.Corr.K {
		panic(fmt.Sprintf("cmfsd: XIndex(%d,%d) out of range for K=%d", i, j, m.Corr.K))
	}
	return (i-1)*i/2 + (j - 1)
}

// YIndex returns the state index of y^i.
func (m *Model) YIndex(i int) int {
	if i < 1 || i > m.Corr.K {
		panic(fmt.Sprintf("cmfsd: YIndex(%d) out of range for K=%d", i, m.Corr.K))
	}
	return m.Corr.K*(m.Corr.K+1)/2 + (i - 1)
}

// RHS implements fluid.Model (Eq. 5): the one-group case of eq5.
func (m *Model) RHS(_ float64, s, dst []float64) {
	g := [1]Group{{Fraction: 1, Rho: m.Rho}}
	eq5(&m.Params, m.Corr, m.Theta, g[:], s, dst)
}

// eq5 evaluates Eq. (5) for one or more peer groups sharing one service
// pool. Group g's class-i arrivals are Fraction·λ_i, its P(i,j) is 1 for
// j = 1 and Rho after, and every downloader stage x^{i,j} drains at θ·x.
// The state is group-major; each block holds the K(K+1)/2 downloader cells
// in (i,j) order, then the K seed cells. Negative components count as
// empty.
//
// Every sum runs in (group, i, j) order and every product keeps its
// left-to-right association, so the loops' shape may change without a bit
// of the result moving (DESIGN.md, "Fluid solver").
func eq5(p *fluid.Params, corr *correlation.Model, theta float64, groups []Group, s, dst []float64) {
	k := corr.K
	nx := k * (k + 1) / 2

	// Pooled quantities: total downloaders Σx, virtual-seed upload mass
	// Σ(1−P)x, and real-seed mass Σy.
	totalX, virtMass, seedMass := 0.0, 0.0, 0.0
	for g, grp := range groups {
		blk := s[g*(nx+k) : (g+1)*(nx+k)]
		totalX, virtMass, seedMass = pool(blk[:nx], blk[nx:], 1-grp.Rho, totalX, virtMass, seedMass)
	}
	// Seed-like service rate per unit downloader population.
	perCapita := 0.0
	if totalX > 0 {
		perCapita = p.Mu * (virtMass + seedMass) / totalX
	}
	for g, grp := range groups {
		blk, out := s[g*(nx+k):(g+1)*(nx+k)], dst[g*(nx+k):(g+1)*(nx+k)]
		flows(p, corr, grp, theta, perCapita, blk[:nx], blk[nx:], out[:nx], out[nx:])
	}
}

// pool adds one group's downloader cells xs and seed cells ys, with
// virt = 1−ρ, to the pooled sums Σx, Σ(1−P)x and Σy and returns them. A
// j = 1 stage has P = 1, so its (1−P)x would add an exact +0 to Σ(1−P)x:
// it adds to Σx alone. Inlined into eq5, the inner loop's index would be
// spilled to the stack on every iteration.
//
//go:noinline
func pool(xs, ys []float64, virt, totalX, virtMass, seedMass float64) (float64, float64, float64) {
	for i, y := range ys {
		totalX += nonNeg(xs[0])
		for _, x := range xs[1 : i+1] {
			x = nonNeg(x)
			totalX += x
			virtMass += virt * x
		}
		xs = xs[i+1:]
		seedMass += nonNeg(y)
	}
	return totalX, virtMass, seedMass
}

// flows writes one group's derivatives dx (downloader cells) and dy (seed
// cells): stage (i,j)'s completion rate — TFT service received (μηP·x)
// plus its pooled seed-like share S^{i,j} = x·perCapita — is stage
// (i,j+1)'s inflow, and stage (i,i)'s is the seeds' inflow.
func flows(p *fluid.Params, corr *correlation.Model, grp Group, theta, perCapita float64, xs, ys, dx, dy []float64) {
	tft := p.Mu * p.Eta     // μηP(i,1) = μη
	tftRho := tft * grp.Rho // μηP(i,j) = μηρ for j > 1
	for i, y := range ys {
		in, rate := grp.Fraction*corr.UserRate(i+1), tft
		xi, di := xs[:i+1], dx[:i+1]
		for j, x := range xi {
			x = nonNeg(x)
			done := rate*x + x*perCapita
			di[j] = in - done - theta*x
			in, rate = done, tftRho
		}
		xs, dx = xs[i+1:], dx[i+1:]
		dy[i] = in - p.Gamma*nonNeg(y)
	}
}

// nonNeg clamps a population component at zero.
func nonNeg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// InitialState implements fluid.Model: a strictly positive warm start near
// the expected magnitudes so relaxation cannot divide by an empty torrent.
func (m *Model) InitialState() []float64 {
	s := make([]float64, m.Dim())
	for i := 1; i <= m.Corr.K; i++ {
		rate := m.Corr.UserRate(i)
		for j := 1; j <= i; j++ {
			s[m.XIndex(i, j)] = rate*20 + 1e-6
		}
		s[m.YIndex(i)] = rate/m.Gamma*0.5 + 1e-6
	}
	return s
}

var _ fluid.Model = (*Model)(nil)

// eq5Options is opt with Eq. (5)'s solver settings — unit steps, a 5e6
// horizon and a 1e-11 tolerance — in the fields it leaves unset.
func eq5Options(opt ode.SteadyStateOptions) ode.SteadyStateOptions {
	if opt.Step <= 0 {
		opt.Step = 1
	}
	if opt.MaxTime <= 0 {
		opt.MaxTime = 5e6
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-11
	}
	return opt
}

// SteadyState finds Eq. (5)'s fixed point: a short RK4 relaxation into the
// basin followed by damped-Newton polishing (with a pure-relaxation
// fallback inside fluid.SteadyStateHybrid).
func (m *Model) SteadyState(opt ode.SteadyStateOptions) ([]float64, error) {
	return fluid.SteadyStateHybrid(m, eq5Options(opt))
}

// SteadyStateRelaxed relaxes Eq. (5) all the way down with fixed-step RK4 —
// slower than SteadyState but with no Newton step; kept for
// cross-validation.
func (m *Model) SteadyStateRelaxed(opt ode.SteadyStateOptions) ([]float64, error) {
	return fluid.SteadyState(m, eq5Options(opt))
}

// Evaluate relaxes the model and converts the fixed point into per-class
// metrics with Little's law: a class-i user spends Σ_j x^{i,j}/λ_i time
// downloading and 1/γ seeding.
func (m *Model) Evaluate() (*metrics.SchemeResult, error) {
	ss, err := m.SteadyState(ode.SteadyStateOptions{})
	if err != nil {
		return nil, err
	}
	return m.MetricsFromState(ss)
}

// MetricsFromState converts a steady-state vector into per-class metrics.
func (m *Model) MetricsFromState(ss []float64) (*metrics.SchemeResult, error) {
	if len(ss) != m.Dim() {
		return nil, errors.New("cmfsd: state dimension mismatch")
	}
	res := &metrics.SchemeResult{Scheme: Scheme}
	for i := 1; i <= m.Corr.K; i++ {
		rate := m.Corr.UserRate(i)
		pc := metrics.PerClass{Class: i, EntryRate: rate}
		if rate > 0 {
			total := 0.0
			for j := 1; j <= i; j++ {
				total += ss[m.XIndex(i, j)]
			}
			pc.DownloadTime = total / rate
			if m.Theta > 0 {
				// With aborts only a fraction of arrivals become seeds;
				// Little's law on y^i charges exactly that fraction with
				// the 1/γ seeding spell.
				pc.OnlineTime = pc.DownloadTime + ss[m.YIndex(i)]/rate
			} else {
				pc.OnlineTime = pc.DownloadTime + 1/m.Gamma
			}
		} else {
			pc.DownloadTime = math.NaN()
			pc.OnlineTime = math.NaN()
		}
		res.Classes = append(res.Classes, pc)
	}
	return res, nil
}

// Stability linearizes Eq. (5) at the supplied fixed point.
func (m *Model) Stability(ss []float64) (*fluid.StabilityReport, error) {
	return fluid.Stability(m, ss)
}
