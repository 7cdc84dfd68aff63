package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"mfdl/internal/adapt"
	"mfdl/internal/swarm"
)

func fastSettings() SimSettings {
	s := DefaultSimSettings
	s.Horizon = 2500
	s.Warmup = 500
	return s
}

func TestSimValidateAgreement(t *testing.T) {
	res, err := SimValidate(context.Background(), fastSettings(), []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // MTSD, MTCD, MFCD, CMFSD ρ∈{0,0.5,1}
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Completed < 100 {
			t.Fatalf("%s: only %d completions", row.Scheme, row.Completed)
		}
		if row.RelErr > 0.2 {
			t.Fatalf("%s p=%v ρ=%v: fluid %v vs sim %v (err %.1f%%)",
				row.Scheme, row.P, row.Rho, row.Fluid, row.Simulated, 100*row.RelErr)
		}
	}
	out := res.Table().String()
	if !strings.Contains(out, "MTSD") || !strings.Contains(out, "CMFSD") {
		t.Fatalf("table incomplete:\n%s", out)
	}
}

func TestAdaptSweepMonotoneRho(t *testing.T) {
	ac := adapt.Config{
		Lower: -0.05, Upper: 0.05, StepUp: 0.2, StepDown: 0.1,
		Period: 5, InitialRho: 0, Consecutive: 2,
	}
	res, err := AdaptSweep(context.Background(), fastSettings(), 0.9, ac, []float64{0, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	clean, cheated := res.Rows[0], res.Rows[1]
	if cheated.MeanFinalRho <= clean.MeanFinalRho {
		t.Fatalf("cheating should raise ρ: clean %v, cheated %v",
			clean.MeanFinalRho, cheated.MeanFinalRho)
	}
	if !strings.Contains(res.Table().String(), "cheater fraction") {
		t.Fatal("table header wrong")
	}
}

func TestSwarmCompareOrdering(t *testing.T) {
	base := swarm.DefaultConfig
	base.Horizon = 2000
	base.Warmup = 300
	res, err := SwarmCompare(context.Background(), base, []float64{0, 1}, Options{Seed: base.Seed, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var mfcd, rho0 float64
	for _, row := range res.Rows {
		if row.Completed < 50 {
			t.Fatalf("%s thin: %d", row.Scheme, row.Completed)
		}
		if row.Scheme == "MFCD" {
			mfcd = row.OnlinePerFile
		}
		if row.Scheme == "CMFSD" && row.Rho == 0 {
			rho0 = row.OnlinePerFile
		}
	}
	if math.IsNaN(mfcd) || rho0 >= mfcd {
		t.Fatalf("chunk-level CMFSD ρ=0 (%v) should beat MFCD (%v)", rho0, mfcd)
	}
	if !strings.Contains(res.Table().String(), "Chunk-level") {
		t.Fatal("table title wrong")
	}
}
