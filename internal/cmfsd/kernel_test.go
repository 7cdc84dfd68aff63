package cmfsd

import (
	"math"
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/numeric/ode"
	"mfdl/internal/rng"
)

type kernelCase struct {
	name string
	m    fluid.Model
}

// kernelCases are eq5's two callers at the paper's K = 10: the plain model
// with aborts, and the cheating experiment's two groups.
func kernelCases(tb testing.TB) []kernelCase {
	plain := model(tb, 10, 0.9, 0.5)
	plain.Theta = 0.001
	mixed := mixedModel(tb, 0.9, []Group{
		{Name: "obedient", Fraction: 0.6, Rho: 0},
		{Name: "cheater", Fraction: 0.4, Rho: 1},
	})
	return []kernelCase{{"Model", plain}, {"Mixed", mixed}}
}

// TestRHSAllocatesNothing guards the solvers' inner loop: an RHS call
// must not touch the heap.
func TestRHSAllocatesNothing(t *testing.T) {
	for _, c := range kernelCases(t) {
		s, dst := c.m.InitialState(), make([]float64, c.m.Dim())
		if n := testing.AllocsPerRun(100, func() { c.m.RHS(0, s, dst) }); n != 0 {
			t.Errorf("%s.RHS: %v allocations per call, want 0", c.name, n)
		}
	}
}

func BenchmarkRHS(b *testing.B) {
	for _, c := range kernelCases(b) {
		b.Run(c.name, func(b *testing.B) {
			s, dst := c.m.InitialState(), make([]float64, c.m.Dim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.m.RHS(0, s, dst)
			}
		})
	}
}

// coldSurface is a Fig. 4(a) surface at the paper's K = 10: a 9 × 9 grid
// of p ∈ [0.1, 0.9] by ρ ∈ [0, 1], the fluid_cold benchmark's shape.
func coldSurface(tb testing.TB) []*Model {
	var ms []*Model
	for ip := 0; ip < 9; ip++ {
		for ir := 0; ir < 9; ir++ {
			ms = append(ms, model(tb, 10, 0.1+0.1*float64(ip), float64(ir)/8))
		}
	}
	return ms
}

// BenchmarkColdSurface solves every cell of coldSurface once per
// iteration, as a cold sweep does: the whole solve path of Eq. (5).
func BenchmarkColdSurface(b *testing.B) {
	ms := coldSurface(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			if _, err := m.SteadyState(ode.SteadyStateOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// countingModel counts its model's right-hand-side evaluations.
type countingModel struct {
	fluid.Model
	evals *int
}

func (c countingModel) RHS(t float64, x, dst []float64) {
	*c.evals++
	c.Model.RHS(t, x, dst)
}

// hybridAllocs is what one SteadyStateHybrid solve of a 65-state CMFSD
// model allocates, all of it before Newton's first iteration: the initial
// state, the RK4 stepper (six), the relaxation's residual, the polished
// copy, Newton's workspace and its LU's pivot slice.
const hybridAllocs = 11

// TestHybridSolveAllocatesFixed checks that a whole hybrid solve allocates
// hybridAllocs times on every cell of coldSurface, however many iterations
// the cell takes: no RK4 step and no Newton iteration allocates.
func TestHybridSolveAllocatesFixed(t *testing.T) {
	seen := map[int]bool{}
	for _, m := range coldSurface(t) {
		evals := 0
		cm := countingModel{m, &evals}
		if _, err := fluid.SteadyStateHybrid(cm, eq5Options(ode.SteadyStateOptions{})); err != nil {
			t.Fatal(err)
		}
		seen[evals] = true
		n := testing.AllocsPerRun(2, func() {
			if _, err := fluid.SteadyStateHybrid(m, eq5Options(ode.SteadyStateOptions{})); err != nil {
				t.Fatal(err)
			}
		})
		if n != hybridAllocs {
			t.Errorf("p=%v ρ=%v: %v allocations per solve, want %d (%d RHS evaluations)", m.Corr.P, m.Rho, n, hybridAllocs, evals)
		}
	}
	if len(seen) < 2 {
		t.Fatalf("every cell took the same %v evaluations: the test needs cells of different lengths", seen)
	}
}

// refEq5 is eq5 as it was before its loops were tightened, kept verbatim:
// the reference TestEq5MatchesReference holds eq5 to bit for bit.
func refEq5(p *fluid.Params, corr *correlation.Model, theta float64, groups []Group, s, dst []float64) {
	k := corr.K
	nx := k * (k + 1) / 2
	mu, eta, gamma := p.Mu, p.Eta, p.Gamma

	// Pooled quantities: total downloaders Σx, virtual-seed upload mass
	// Σ(1−P)x, and real-seed mass Σy.
	totalX, virtMass, seedMass := 0.0, 0.0, 0.0
	for g, grp := range groups {
		lo, hi := g*(nx+k), (g+1)*(nx+k)
		xs, ys := s[lo:lo+nx], s[lo+nx:hi]
		c := 0
		for i := 1; i <= k; i++ {
			pij := 1.0
			for j := 1; j <= i; j++ {
				x := nonNeg(xs[c])
				totalX += x
				virtMass += (1 - pij) * x
				pij = grp.Rho
				c++
			}
			seedMass += nonNeg(ys[i-1])
		}
	}
	// Seed-like service rate per unit downloader population.
	perCapita := 0.0
	if totalX > 0 {
		perCapita = mu * (virtMass + seedMass) / totalX
	}

	// Stage (i,j)'s completion rate — TFT service received (μηP·x) plus
	// its pooled seed-like share S^{i,j} — is stage (i,j+1)'s inflow, and
	// stage (i,i)'s is the seeds' inflow.
	for g, grp := range groups {
		lo, hi := g*(nx+k), (g+1)*(nx+k)
		xs, ys := s[lo:lo+nx], s[lo+nx:hi]
		dx, dy := dst[lo:lo+nx], dst[lo+nx:hi]
		c := 0
		for i := 1; i <= k; i++ {
			in := grp.Fraction * corr.UserRate(i)
			pij := 1.0
			for j := 1; j <= i; j++ {
				x := nonNeg(xs[c])
				out := mu*eta*pij*x + x*perCapita
				dx[c] = in - out - theta*x
				in = out
				pij = grp.Rho
				c++
			}
			dy[i-1] = in - gamma*nonNeg(ys[i-1])
		}
	}
}

// TestEq5MatchesReference compares eq5 with refEq5 by Float64bits over
// seeded random rates, groups and states: K ∈ {1, 2, 3, 10}, one to three
// groups with ρ drawn from {0, 1, uniform}, θ ∈ {0, 0.001}, and states
// whose components are positive, negative, +0 or −0 (the first draw of
// each shape has no positive downloader, so the pool is empty).
func TestEq5MatchesReference(t *testing.T) {
	src := rng.New(44)
	for _, k := range []int{1, 2, 3, 10} {
		for ng := 1; ng <= 3; ng++ {
			for _, theta := range []float64{0, 0.001} {
				for trial := 0; trial < 25; trial++ {
					p := fluid.Params{Mu: 0.005 + 0.1*src.Float64(), Eta: 0.1 + 0.9*src.Float64(), Gamma: 0.01 + src.Float64()}
					corr, err := correlation.New(k, 0.05+0.9*src.Float64(), 0.5+4*src.Float64())
					if err != nil {
						t.Fatal(err)
					}
					groups := make([]Group, ng)
					for g := range groups {
						groups[g] = Group{Fraction: src.Float64(), Rho: []float64{0, 1, src.Float64()}[src.Intn(3)]}
					}
					s := make([]float64, ng*(k*(k+1)/2+k))
					for i := range s {
						switch src.Intn(5) {
						case 0:
							s[i] = 0
						case 1:
							s[i] = math.Copysign(0, -1)
						case 2:
							s[i] = -src.Float64()
						default:
							if trial > 0 {
								s[i] = 50 * src.Float64()
							}
						}
					}
					got, want := make([]float64, len(s)), make([]float64, len(s))
					eq5(&p, corr, theta, groups, s, got)
					refEq5(&p, corr, theta, groups, s, want)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("K=%d groups=%d θ=%v trial %d: dst[%d] = %v, reference %v",
								k, ng, theta, trial, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}
