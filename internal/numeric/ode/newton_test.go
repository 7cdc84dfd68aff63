package ode

import (
	"math"
	"testing"
)

func TestNewtonSteadyStateLinear(t *testing.T) {
	rhs := func(t float64, x, dst []float64) {
		dst[0] = 2 - x[0]
		dst[1] = 3 - x[1]
	}
	x := []float64{100, -100}
	if err := NewtonSteadyState(rhs, x, 1e-12); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-3) > 1e-10 {
		t.Fatalf("fixed point %v", x)
	}
}

func TestNewtonSteadyStateNonlinear(t *testing.T) {
	// Logistic: f(x) = x(1-x); from 0.2 Newton must find x = 1 or x = 0 —
	// with damping from 0.2 it converges to a root with zero residual.
	x := []float64{0.2}
	if err := NewtonSteadyState(logistic, x, 1e-12); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]) > 1e-9 && math.Abs(x[0]-1) > 1e-9 {
		t.Fatalf("root %v", x[0])
	}
}

func TestNewtonSteadyStateFailsOnRootlessSystem(t *testing.T) {
	rhs := func(t float64, x, dst []float64) { dst[0] = 1 + x[0]*x[0] }
	x := []float64{0}
	if err := NewtonSteadyState(rhs, x, 1e-12); err == nil {
		t.Fatal("rootless system converged")
	}
}

func TestNewtonMatchesRelaxation(t *testing.T) {
	// 3-state contrived nonlinear system: Newton and RK4 relaxation must
	// find the same fixed point.
	rhs := func(t float64, x, dst []float64) {
		dst[0] = 1 - x[0] - 0.1*x[0]*x[1]
		dst[1] = x[0] - 0.5*x[1]
		dst[2] = x[1] - 0.2*x[2]
	}
	a := []float64{1, 1, 1}
	if _, err := SteadyState(NewRK4(3), rhs, a, SteadyStateOptions{Tol: 1e-13}); err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 1, 1}
	if err := NewtonSteadyState(rhs, b, 1e-12); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-8 {
			t.Fatalf("component %d: relaxation %v vs Newton %v", i, a[i], b[i])
		}
	}
}

// coupledDecay is dx_i/dt = 1 − x_i − 0.01·x_i·x_{i+1}, a fixed point near
// x = 1.
func coupledDecay(t float64, x, dst []float64) {
	for i := range x {
		dst[i] = 1 - x[i] - 0.01*x[i]*x[(i+1)%len(x)]
	}
}

// TestNewtonAllocatesPerSolveOnly solves coupledDecay from starts that
// take different numbers of iterations and checks each solve allocates
// the same: the workspace is made once, and no iteration allocates.
func TestNewtonAllocatesPerSolveOnly(t *testing.T) {
	allocs := map[float64]bool{}
	iters := map[int]bool{}
	for _, start := range []float64{0.9, 0, 5, 200} {
		evals := 0
		counting := func(t float64, x, dst []float64) { evals++; coupledDecay(t, x, dst) }
		x := make([]float64, 20)
		solve := func() {
			for i := range x {
				x[i] = start
			}
			if err := NewtonSteadyState(counting, x, 1e-12); err != nil {
				t.Fatal(err)
			}
		}
		solve()
		iters[evals/(2*len(x))] = true
		allocs[testing.AllocsPerRun(5, solve)] = true
	}
	if len(iters) < 2 {
		t.Fatalf("every start took the same number of iterations %v: the test needs different lengths", iters)
	}
	if len(allocs) != 1 {
		t.Fatalf("allocations per solve differ with the iteration count: %v", allocs)
	}
}

func BenchmarkNewtonSteadyState(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x := make([]float64, 20)
		if err := NewtonSteadyState(coupledDecay, x, 1e-12); err != nil {
			b.Fatal(err)
		}
	}
}
