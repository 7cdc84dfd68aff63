package fluid

import (
	"math"
	"testing"

	"mfdl/internal/numeric/ode"
)

func paperClass(name string, lambda float64) Class {
	return Class{Name: name, Mu: 0.02, C: 2, Lambda: lambda, Gamma: 0.05}
}

func TestMultiClassValidation(t *testing.T) {
	if _, err := NewMultiClass(0.5, nil); err == nil {
		t.Fatal("no classes accepted")
	}
	if _, err := NewMultiClass(0, []Class{paperClass("a", 1)}); err == nil {
		t.Fatal("η=0 accepted")
	}
	bad := paperClass("a", 1)
	bad.Mu = 0
	if _, err := NewMultiClass(0.5, []Class{bad}); err == nil {
		t.Fatal("μ=0 class accepted")
	}
}

func TestMultiClassHomogeneousMatchesSingleTorrent(t *testing.T) {
	// One class with the paper parameters must reproduce T = 60.
	m, err := NewMultiClass(0.5, []Class{paperClass("all", 1)})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := SteadyState(m, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dl, online, err := m.ClassTimes(ss)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dl[0]-60) > 0.01 || math.Abs(online[0]-80) > 0.01 {
		t.Fatalf("homogeneous times %v/%v, want 60/80", dl[0], online[0])
	}
}

func TestMultiClassSplitIsNeutral(t *testing.T) {
	// Splitting one class into two identical halves must not change the
	// per-class times.
	whole, _ := NewMultiClass(0.5, []Class{paperClass("all", 2)})
	split, _ := NewMultiClass(0.5, []Class{paperClass("a", 1), paperClass("b", 1)})
	ssW, err := SteadyState(whole, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ssS, err := SteadyState(split, ode.SteadyStateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dlW, _, _ := whole.ClassTimes(ssW)
	dlS, _, _ := split.ClassTimes(ssS)
	for i := range dlS {
		if math.Abs(dlS[i]-dlW[0]) > 1e-4*dlW[0] {
			t.Fatalf("split class %d time %v != whole %v", i, dlS[i], dlW[0])
		}
	}
}

func TestMultiClassFlowConservation(t *testing.T) {
	m, _ := NewMultiClass(0.5, []Class{
		{Name: "broadband", Mu: 0.04, C: 4, Lambda: 1, Gamma: 0.05},
		{Name: "dsl", Mu: 0.01, C: 1, Lambda: 2, Gamma: 0.05},
	})
	ss, err := SteadyState(m, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	// γ_i·y_i = λ_i per class at the fixed point.
	n := len(m.Classes)
	for i, c := range m.Classes {
		if got := c.Gamma * ss[n+i]; math.Abs(got-c.Lambda) > 1e-6+1e-4*c.Lambda {
			t.Fatalf("class %d flow: γy = %v, λ = %v", i, got, c.Lambda)
		}
	}
}

func TestMultiClassFasterUploadersDownloadFaster(t *testing.T) {
	// Higher μ means more TFT service received (assumption 1): the
	// broadband class must finish sooner even with equal download caps.
	m, _ := NewMultiClass(0.5, []Class{
		{Name: "broadband", Mu: 0.04, C: 2, Lambda: 1, Gamma: 0.05},
		{Name: "dsl", Mu: 0.01, C: 2, Lambda: 1, Gamma: 0.05},
	})
	ss, err := SteadyState(m, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	dl, _, _ := m.ClassTimes(ss)
	if dl[0] >= dl[1] {
		t.Fatalf("broadband %v not faster than dsl %v", dl[0], dl[1])
	}
}

func TestMultiClassDownloadCapacityBiasesSeedService(t *testing.T) {
	// Equal uploads but asymmetric download capacity: the high-c class
	// receives a larger seed share (assumption 2) and finishes faster.
	m, _ := NewMultiClass(0.5, []Class{
		{Name: "fat-pipe", Mu: 0.02, C: 8, Lambda: 1, Gamma: 0.05},
		{Name: "thin-pipe", Mu: 0.02, C: 1, Lambda: 1, Gamma: 0.05},
	})
	ss, err := SteadyState(m, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	dl, _, _ := m.ClassTimes(ss)
	if dl[0] >= dl[1] {
		t.Fatalf("fat-pipe %v not faster than thin-pipe %v", dl[0], dl[1])
	}
}

func TestMultiClassStability(t *testing.T) {
	m, _ := NewMultiClass(0.5, []Class{
		{Name: "a", Mu: 0.04, C: 4, Lambda: 1, Gamma: 0.05},
		{Name: "b", Mu: 0.01, C: 1, Lambda: 2, Gamma: 0.08},
	})
	ss, err := SteadyState(m, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Stability(m, ss)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stable {
		t.Fatalf("multi-class fixed point unstable: %v", rep.Abscissa)
	}
}

func TestMultiClassClassTimesBadState(t *testing.T) {
	m, _ := NewMultiClass(0.5, []Class{paperClass("a", 1)})
	if _, _, err := m.ClassTimes([]float64{1}); err == nil {
		t.Fatal("bad dimension accepted")
	}
}
