package cmfsd

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/golden"
	"mfdl/internal/mtcd"
	"mfdl/internal/numeric/ode"
)

// stateDigest is the sha256 of the steady-state vector's Float64bits in
// little-endian order: any change to an iterate's arithmetic shows up here,
// however far below the experiment tables' 2–4 printed digits it lies.
func stateDigest(ss []float64, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range ss {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("n=%d %x", len(ss), h.Sum(nil))
}

// fluidGoldenLines solves every pinned fluid configuration and returns one
// "config: digest" line each, in a fixed order.
func fluidGoldenLines(t *testing.T) []string {
	t.Helper()
	corr := func(k int, p, l0 float64) *correlation.Model {
		c, err := correlation.New(k, p, l0)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cmfsdLine := func(k int, p, rho, l0, theta float64) string {
		m, err := New(fluid.PaperParams, corr(k, p, l0), rho)
		if err != nil {
			t.Fatal(err)
		}
		m.Theta = theta
		ss, err := m.SteadyState(ode.SteadyStateOptions{})
		return fmt.Sprintf("cmfsd K=%d p=%g rho=%g l0=%g theta=%g: %s", k, p, rho, l0, theta, stateDigest(ss, err))
	}
	var lines []string
	// CMFSD, Eq. (5), with and without aborts.
	for _, k := range []int{1, 3, 10} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			for _, rho := range []float64{0, 0.5, 1} {
				for _, l0 := range []float64{1, 4} {
					for _, theta := range []float64{0, 0.001} {
						lines = append(lines, cmfsdLine(k, p, rho, l0, theta))
					}
				}
			}
		}
	}
	// Interior points of a Fig. 4(a) surface (K = 10, λ₀ = 1, θ = 0, the
	// fluid_cold benchmark's shape), with ρ and p off the grid above, where
	// no P(i,j) is 0, 1/2 or 1.
	for _, p := range []float64{0.37, 0.93} {
		for _, rho := range []float64{0.07, 0.33, 0.81} {
			lines = append(lines, cmfsdLine(10, p, rho, 1, 0))
		}
	}
	// Mixed: the cheating experiment's obedient (ρ = 0) and cheater (ρ = 1)
	// groups at p = 0.9, as Mixed.Evaluate solves them.
	for _, cf := range []float64{0, 0.4, 1} {
		var groups []Group
		if cf < 1 {
			groups = append(groups, Group{Name: "obedient", Fraction: 1 - cf, Rho: 0})
		}
		if cf > 0 {
			groups = append(groups, Group{Name: "cheater", Fraction: cf, Rho: 1})
		}
		m, err := NewMixed(fluid.PaperParams, corr(10, 0.9, 1), groups)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := fluid.SteadyStateHybrid(m, ode.SteadyStateOptions{Step: 1, MaxTime: 5e6, Tol: 1e-11})
		lines = append(lines, fmt.Sprintf("mixed K=10 p=0.9 cheaters=%g: %s", cf, stateDigest(ss, err)))
	}
	// MTCD with aborts: Eq. (1) solved numerically, as mtcd's θ > 0 path
	// does.
	for _, k := range []int{3, 10} {
		for _, p := range []float64{0.3, 0.9} {
			for _, theta := range []float64{0.001, 0.01} {
				m, err := mtcd.New(fluid.PaperParams, corr(k, p, 1))
				if err != nil {
					t.Fatal(err)
				}
				m.Theta = theta
				ss, err := fluid.SteadyStateHybrid(m.NewODE(), ode.SteadyStateOptions{})
				lines = append(lines, fmt.Sprintf("mtcd K=%d p=%g theta=%g: %s", k, p, theta, stateDigest(ss, err)))
			}
		}
	}
	return lines
}

// TestFluidBitGolden pins the fluid solvers' steady states bit-for-bit.
// Regenerating it is a reviewed act: it means the iterates changed
// (make regolden, DESIGN.md §10b).
func TestFluidBitGolden(t *testing.T) {
	golden.Check(t, filepath.Join("testdata", "fluid_bitgolden.txt"), strings.Join(fluidGoldenLines(t), "\n")+"\n")
}
