package experiments

import (
	"context"
	"testing"

	"mfdl/internal/runner"
)

// Every experiment must surface configuration errors instead of panicking
// or silently computing nonsense.
func TestExperimentsRejectBadConfig(t *testing.T) {
	bad := PaperConfig
	bad.K = 0
	if _, err := Fig2(context.Background(), bad, runner.Linspace(0, 1, 2)); err == nil {
		t.Fatal("Fig2 accepted K=0")
	}
	if _, err := Fig3(bad, 0.5); err == nil {
		t.Fatal("Fig3 accepted K=0")
	}
	if _, err := Fig4A(context.Background(), bad, []float64{0.5}, []float64{0}); err == nil {
		t.Fatal("Fig4A accepted K=0")
	}
	if _, err := EtaAblation(context.Background(), bad, []float64{0.5}, []float64{0.5}); err == nil {
		t.Fatal("EtaAblation accepted K=0")
	}
	if _, err := Fig4BC(bad, 0.5, 0.1, 0.9); err == nil {
		t.Fatal("Fig4BC accepted K=0")
	}
	if _, err := Validate(bad); err == nil {
		t.Fatal("Validate accepted K=0")
	}
	if _, _, err := StabilityTable(bad); err == nil {
		t.Fatal("StabilityTable accepted K=0")
	}
	if _, err := Crossover(bad); err == nil {
		t.Fatal("Crossover accepted K=0")
	}
	if _, err := CheatingSweep(bad, 0.9, 0, []float64{0}); err == nil {
		t.Fatal("CheatingSweep accepted K=0")
	}
}

func TestExperimentsRejectBadCorrelation(t *testing.T) {
	if _, err := Fig3(PaperConfig, 2); err == nil {
		t.Fatal("Fig3 accepted p=2")
	}
	if _, err := Fig4A(context.Background(), PaperConfig, []float64{2}, []float64{0}); err == nil {
		t.Fatal("Fig4A accepted p=2")
	}
	if _, err := Fig4BC(PaperConfig, 0.5, -1, 0.9); err == nil {
		t.Fatal("Fig4BC accepted ρ=-1")
	}
}

func TestCrossoverRequiresUploadConstraint(t *testing.T) {
	bad := PaperConfig
	bad.Gamma = 0.01 // below μ
	if _, err := Crossover(bad); err == nil {
		t.Fatal("crossover accepted γ<μ")
	}
}
