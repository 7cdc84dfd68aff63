package ode

import (
	"math"
	"testing"
	"testing/quick"

	"mfdl/internal/rng"
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

// badSpans are fixed-step integrations Integrate and Trajectory must
// refuse. Before they were refused, a NaN h ran one NaN step and returned
// a NaN time with no error, a NaN t1 returned at once with x untouched,
// and t1 = +Inf never returned.
var badSpans = []struct {
	name      string
	t0, t1, h float64
}{
	{"h=0", 0, 1, 0},
	{"h<0", 0, 1, -0.1},
	{"h=NaN", 0, 1, math.NaN()},
	{"h=+Inf", 0, 1, math.Inf(1)},
	{"t1<t0", 1, 0, 0.1},
	{"t0=NaN", math.NaN(), 1, 0.1},
	{"t1=NaN", 0, math.NaN(), 0.1},
	{"t0=-Inf", math.Inf(-1), 1, 0.1},
	{"t1=+Inf", 0, math.Inf(1), 0.1},
}

func TestIntegrateRejectsBadArgs(t *testing.T) {
	for _, c := range badSpans {
		t.Run(c.name, func(t *testing.T) {
			x := []float64{1}
			if _, err := Integrate(NewRK4(1), expDecay, c.t0, c.t1, x, c.h); err == nil {
				t.Fatalf("t0=%v t1=%v h=%v accepted", c.t0, c.t1, c.h)
			}
			if x[0] != 1 {
				t.Fatalf("rejected span moved x to %v", x[0])
			}
		})
	}
}

func TestTrajectoryRejectsBadArgs(t *testing.T) {
	for _, c := range badSpans {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Trajectory(NewRK4(1), expDecay, c.t0, c.t1, []float64{1}, c.h, 1); err == nil {
				t.Fatalf("t0=%v t1=%v h=%v accepted", c.t0, c.t1, c.h)
			}
		})
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

// stepCase is a seeded nonlinear, time-dependent system of dimension n
// and a state with negative, zero and positive components.
func stepCase(src *rng.Source, n int) (RHS, []float64) {
	a, c := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i], c[i] = src.Float64()-0.5, src.Float64()
	}
	f := func(t float64, x, dst []float64) {
		for i := range x {
			dst[i] = a[i]*x[i] - c[i]*x[(i+1)%len(x)]*x[i] + math.Sin(t)*c[i]
		}
	}
	x := make([]float64, n)
	for i := range x {
		switch src.Intn(4) {
		case 0:
		case 1:
			x[i] = -src.Float64()
		default:
			x[i] = 10 * src.Float64()
		}
	}
	return f, x
}

// refStep is RK4.Step as it was before its stage vectors were resliced
// and 0.5·h and h/6 hoisted, kept verbatim: the reference
// TestStepMatchesReference holds Step to bit for bit.
func refStep(s *RK4, f RHS, t float64, x []float64, h float64) {
	f(t, x, s.k1)
	for i := range x {
		s.tmp[i] = x[i] + 0.5*h*s.k1[i]
	}
	f(t+0.5*h, s.tmp, s.k2)
	for i := range x {
		s.tmp[i] = x[i] + 0.5*h*s.k2[i]
	}
	f(t+0.5*h, s.tmp, s.k3)
	for i := range x {
		s.tmp[i] = x[i] + h*s.k3[i]
	}
	f(t+h, s.tmp, s.k4)
	for i := range x {
		x[i] += h / 6 * (s.k1[i] + 2*s.k2[i] + 2*s.k3[i] + s.k4[i])
	}
}

// TestStepMatchesReference steps seeded systems with Step and refStep from
// the same state and compares every component by Float64bits after each
// step, over seeded times and step sizes.
func TestStepMatchesReference(t *testing.T) {
	src := rng.New(44)
	for _, n := range []int{1, 2, 7, 65} {
		for trial := 0; trial < 10; trial++ {
			f, x := stepCase(src, n)
			y := append([]float64(nil), x...)
			a, b := NewRK4(n), NewRK4(n)
			tm, h := 100*src.Float64(), 0.01+2*src.Float64()
			for step := 0; step < 20; step++ {
				a.Step(f, tm, x, h)
				refStep(b, f, tm, y, h)
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
						t.Fatalf("n=%d trial %d step %d: x[%d] = %v, reference %v", n, trial, step, i, x[i], y[i])
					}
				}
				tm += h
			}
		}
	}
}

// TestStepAllocatesNothing guards the relaxation's inner loop.
func TestStepAllocatesNothing(t *testing.T) {
	f, x := stepCase(rng.New(1), 65)
	s := NewRK4(65)
	if n := testing.AllocsPerRun(100, func() { s.Step(f, 0, x, 0.5) }); n != 0 {
		t.Fatalf("Step: %v allocations per call, want 0", n)
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
