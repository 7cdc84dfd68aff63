package ode

import (
	"math"
	"testing"
	"testing/quick"
)

// expDecay is dx/dt = -x with solution x(t) = x0·e^{-t}.
func expDecay(t float64, x, dst []float64) {
	for i := range x {
		dst[i] = -x[i]
	}
}

// circle is the harmonic oscillator x” = -x written as a system; the
// solution preserves x² + v².
func circle(t float64, x, dst []float64) {
	dst[0] = x[1]
	dst[1] = -x[0]
}

// logistic dx/dt = x(1-x), steady state 1.
func logistic(t float64, x, dst []float64) {
	dst[0] = x[0] * (1 - x[0])
}

func TestExactOnLinearProblem(t *testing.T) {
	// RK4 integrates dx/dt = c exactly.
	rhs := func(t float64, x, dst []float64) { dst[0] = 3 }
	x := []float64{1}
	if _, err := Integrate(NewRK4(1), rhs, 0, 2, x, 0.1); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-7) > 1e-12 {
		t.Fatalf("x(2) = %v, want 7", x[0])
	}
}

func TestConvergenceOrders(t *testing.T) {
	// Measure RK4's empirical order on exp decay by halving h; the error
	// ratio must approach 2^4.
	errAt := func(h float64) float64 {
		x := []float64{1}
		if _, err := Integrate(NewRK4(1), expDecay, 0, 1, x, h); err != nil {
			t.Fatal(err)
		}
		return math.Abs(x[0] - math.Exp(-1))
	}
	e1, e2 := errAt(0.02), errAt(0.01)
	if gotOrder := math.Log2(e1 / e2); math.Abs(gotOrder-4) > 0.25 {
		t.Fatalf("rk4 empirical order %.3f, want ~4 (e1=%g e2=%g)", gotOrder, e1, e2)
	}
}

func TestRK4Accuracy(t *testing.T) {
	s := NewRK4(2)
	x := []float64{1, 0}
	if _, err := Integrate(s, circle, 0, 2*math.Pi, x, 0.01); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-8 || math.Abs(x[1]) > 1e-8 {
		t.Fatalf("one revolution: got (%v,%v), want (1,0)", x[0], x[1])
	}
}

func TestIntegrateFinalPartialStep(t *testing.T) {
	// t1 not a multiple of h: must land exactly on t1.
	s := NewRK4(1)
	x := []float64{1}
	tEnd, err := Integrate(s, expDecay, 0, 1.05, x, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if tEnd != 1.05 {
		t.Fatalf("final time %v, want 1.05", tEnd)
	}
	if math.Abs(x[0]-math.Exp(-1.05)) > 1e-6 {
		t.Fatalf("x = %v, want %v", x[0], math.Exp(-1.05))
	}
}

func TestIntegrateRejectsBadArgs(t *testing.T) {
	s := NewRK4(1)
	x := []float64{1}
	if _, err := Integrate(s, expDecay, 0, 1, x, 0); err == nil {
		t.Fatal("h=0 accepted")
	}
	if _, err := Integrate(s, expDecay, 1, 0, x, 0.1); err == nil {
		t.Fatal("t1 < t0 accepted")
	}
}

func TestTrajectoryRecordsEndpoints(t *testing.T) {
	s := NewRK4(1)
	samples, err := Trajectory(s, expDecay, 0, 1, []float64{1}, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if samples[0].T != 0 || samples[0].X[0] != 1 {
		t.Fatalf("first sample %v", samples[0])
	}
	last := samples[len(samples)-1]
	if last.T != 1 {
		t.Fatalf("last sample at t=%v, want 1", last.T)
	}
	if math.Abs(last.X[0]-math.Exp(-1)) > 1e-6 {
		t.Fatalf("x(1) = %v", last.X[0])
	}
}

func TestTrajectoryDoesNotMutateInput(t *testing.T) {
	s := NewRK4(1)
	x := []float64{5}
	if _, err := Trajectory(s, expDecay, 0, 1, x, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	if x[0] != 5 {
		t.Fatalf("input state mutated to %v", x[0])
	}
}

func TestSteadyStateLogistic(t *testing.T) {
	x := []float64{0.01}
	tEnd, err := SteadyState(NewRK4(1), logistic, x, SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-8 {
		t.Fatalf("steady state %v (t=%v), want 1", x[0], tEnd)
	}
}

func TestSteadyStateLinearSystem(t *testing.T) {
	// dx/dt = A x + b with A = -I, b = (2,3): fixed point (2,3).
	rhs := func(t float64, x, dst []float64) {
		dst[0] = 2 - x[0]
		dst[1] = 3 - x[1]
	}
	x := []float64{0, 0}
	if _, err := SteadyState(NewRK4(2), rhs, x, SteadyStateOptions{}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-8 || math.Abs(x[1]-3) > 1e-8 {
		t.Fatalf("steady state %v, want (2,3)", x)
	}
}

func TestSteadyStateNoConvergence(t *testing.T) {
	// Pure rotation never converges.
	x := []float64{1, 0}
	_, err := SteadyState(NewRK4(2), circle, x, SteadyStateOptions{MaxTime: 100})
	if err != ErrNoConvergence {
		t.Fatalf("err = %v, want ErrNoConvergence", err)
	}
}

func TestSteadyStateDivergenceDetected(t *testing.T) {
	rhs := func(t float64, x, dst []float64) { dst[0] = x[0] * x[0] }
	x := []float64{10}
	_, err := SteadyState(NewRK4(1), rhs, x, SteadyStateOptions{Step: 1, MaxTime: 1e5})
	if err == nil {
		t.Fatal("divergence not reported")
	}
}

func TestMaxNorm(t *testing.T) {
	if MaxNorm(nil) != 0 {
		t.Fatal("MaxNorm(nil) != 0")
	}
	if got := MaxNorm([]float64{1, -7, 3}); got != 7 {
		t.Fatalf("MaxNorm = %v", got)
	}
}

func TestDOPRIExpDecay(t *testing.T) {
	x := []float64{1}
	st, err := DOPRI(expDecay, 0, 5, x, DOPRIOptions{RTol: 1e-10, ATol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-math.Exp(-5)) > 1e-9 {
		t.Fatalf("x(5) = %v, want %v (stats %+v)", x[0], math.Exp(-5), st)
	}
	if st.Accepted == 0 {
		t.Fatal("no accepted steps recorded")
	}
}

func TestDOPRIOscillatorEnergy(t *testing.T) {
	x := []float64{1, 0}
	if _, err := DOPRI(circle, 0, 20*math.Pi, x, DOPRIOptions{RTol: 1e-9, ATol: 1e-11}); err != nil {
		t.Fatal(err)
	}
	energy := x[0]*x[0] + x[1]*x[1]
	if math.Abs(energy-1) > 1e-6 {
		t.Fatalf("energy drift: %v", energy)
	}
}

func TestDOPRIToleranceScaling(t *testing.T) {
	// Tighter tolerance must not give a larger error.
	run := func(rtol float64) float64 {
		x := []float64{1, 0}
		if _, err := DOPRI(circle, 0, 2*math.Pi, x, DOPRIOptions{RTol: rtol, ATol: rtol * 1e-2}); err != nil {
			t.Fatal(err)
		}
		return math.Hypot(x[0]-1, x[1])
	}
	loose, tight := run(1e-4), run(1e-10)
	if tight > loose {
		t.Fatalf("tight tolerance error %g > loose %g", tight, loose)
	}
	if tight > 1e-7 {
		t.Fatalf("tight run error %g too large", tight)
	}
}

func TestDOPRIZeroSpan(t *testing.T) {
	x := []float64{4}
	st, err := DOPRI(expDecay, 2, 2, x, DOPRIOptions{})
	if err != nil || x[0] != 4 || st.Accepted != 0 {
		t.Fatalf("zero-span integration: x=%v err=%v st=%+v", x[0], err, st)
	}
}

func TestDOPRIRejectsReversedSpan(t *testing.T) {
	x := []float64{1}
	if _, err := DOPRI(expDecay, 1, 0, x, DOPRIOptions{}); err == nil {
		t.Fatal("reversed span accepted")
	}
}

func TestDOPRIMatchesRK4(t *testing.T) {
	// Both integrators on a nonlinear problem must agree to ~1e-8.
	rhs := func(t float64, x, dst []float64) {
		dst[0] = math.Sin(t) - 0.3*x[0]
		dst[1] = x[0] - x[1]
	}
	a := []float64{1, 0}
	b := []float64{1, 0}
	if _, err := Integrate(NewRK4(2), rhs, 0, 10, a, 1e-3); err != nil {
		t.Fatal(err)
	}
	if _, err := DOPRI(rhs, 0, 10, b, DOPRIOptions{RTol: 1e-11, ATol: 1e-13}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-7 {
			t.Fatalf("component %d: rk4=%v dopri=%v", i, a[i], b[i])
		}
	}
}

func TestRK4LinearityProperty(t *testing.T) {
	// For the linear system dx/dt = -x the flow is linear: integrating a
	// scaled initial condition scales the result.
	f := func(x0Raw uint16) bool {
		x0 := float64(x0Raw%1000)/100 + 0.1
		a := []float64{x0}
		b := []float64{2 * x0}
		if _, err := Integrate(NewRK4(1), expDecay, 0, 1, a, 0.05); err != nil {
			return false
		}
		if _, err := Integrate(NewRK4(1), expDecay, 0, 1, b, 0.05); err != nil {
			return false
		}
		return math.Abs(b[0]-2*a[0]) < 1e-9*(1+math.Abs(b[0]))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRK4Step(b *testing.B) {
	s := NewRK4(65)
	x := make([]float64, 65)
	for i := range x {
		x[i] = 1
	}
	rhs := func(t float64, x, dst []float64) {
		for i := range x {
			dst[i] = -0.01 * x[i]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(rhs, 0, x, 0.5)
	}
}

func BenchmarkDOPRIDecay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		x := []float64{1}
		if _, err := DOPRI(expDecay, 0, 10, x, DOPRIOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
