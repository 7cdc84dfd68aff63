package experiments

import (
	"context"
	"strings"
	"testing"

	"mfdl/internal/obs"
)

// churnSettings is a fast operating point with enough completions for the
// fluid comparison to be meaningful.
func churnSettings() SimSettings {
	s := DefaultSimSettings
	s.Horizon = 2500
	s.Warmup = 500
	return s
}

func TestChurnSweepAbortAxis(t *testing.T) {
	// Mild churn (θ·T ≈ 0.03–0.3 across schemes): the memoryless-service
	// drift of the fluid θ-extension stays inside finite-size noise here;
	// see the ChurnSweep doc comment.
	res, err := ChurnSweep(context.Background(), churnSettings(), 1, 42,
		[]float64{0, 0.005}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // {MTSD, MTCD, CMFSD} × {0, 0.005}
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byScheme := map[string][2]ChurnRow{}
	for _, row := range res.Rows {
		if row.Completed < 100 {
			t.Fatalf("%s θ=%v: only %d completions", row.Scheme, row.Theta, row.Completed)
		}
		if row.Theta == 0 && row.Aborted != 0 {
			t.Fatalf("%s θ=0: %d aborted users", row.Scheme, row.Aborted)
		}
		if row.Theta > 0 && row.Aborted == 0 {
			t.Fatalf("%s θ=%v: no aborted users", row.Scheme, row.Theta)
		}
		if row.RelErr > 0.25 {
			t.Fatalf("%s θ=%v: fluid %v vs sim %v (err %.1f%%)",
				row.Scheme, row.Theta, row.Fluid, row.Simulated, 100*row.RelErr)
		}
		pair := byScheme[row.Scheme]
		if row.Theta == 0 {
			pair[0] = row
		} else {
			pair[1] = row
		}
		byScheme[row.Scheme] = pair
	}
	for sc, pair := range byScheme {
		// Churn truncates residences: the fluid prediction must fall, and
		// the simulation must lose completions to aborts.
		if pair[1].Fluid >= pair[0].Fluid {
			t.Fatalf("%s: fluid did not fall with θ: %v -> %v", sc, pair[0].Fluid, pair[1].Fluid)
		}
		if pair[1].Completed >= pair[0].Completed {
			t.Fatalf("%s: completions did not fall with θ: %d -> %d", sc, pair[0].Completed, pair[1].Completed)
		}
	}
	out := res.Table().String()
	if !strings.Contains(out, "MTSD") || !strings.Contains(out, "aborted") {
		t.Fatalf("table incomplete:\n%s", out)
	}
}

func TestChurnSweepSeedQuitAxis(t *testing.T) {
	res, err := ChurnSweep(context.Background(), churnSettings(), 1, 42,
		nil, []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QuitRows) != 1 {
		t.Fatalf("quit rows = %d", len(res.QuitRows))
	}
	row := res.QuitRows[0]
	if row.SeedQuits == 0 {
		t.Fatalf("quit rate %v: no seed quits", row.QuitRate)
	}
	if row.Completed < 100 {
		t.Fatalf("only %d completions", row.Completed)
	}
	// Departing virtual seeds withdraw upload capacity: the swarm cannot be
	// faster than the quit-free ideal.
	if row.Simulated < row.Ideal*0.95 {
		t.Fatalf("quitting seeds sped up the swarm: ideal %v, simulated %v",
			row.Ideal, row.Simulated)
	}
	if !strings.Contains(res.QuitTable().String(), "seed quits") {
		t.Fatalf("quit table incomplete:\n%s", res.QuitTable().String())
	}
}

// TestChurnSweepDeterministic is the chaos-golden check: the same chaos
// seed must yield byte-identical tables at any worker count.
func TestChurnSweepDeterministic(t *testing.T) {
	render := func(workers int) string {
		set := churnSettings()
		set.Horizon = 1200
		set.Warmup = 300
		set.Replicas = 3
		set.Workers = workers
		res, err := ChurnSweep(context.Background(), set, 1, 7,
			[]float64{0, 0.03}, []float64{0.05})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range res.Tables() {
			sb.WriteString(tb.String())
		}
		return sb.String()
	}
	serial := render(1)
	pooled := render(8)
	if serial != pooled {
		t.Fatalf("churn tables differ across worker counts:\n-- workers=1 --\n%s\n-- workers=8 --\n%s", serial, pooled)
	}
}

// With a registry, ChurnSweep records the aborts and seed quits its rows
// report on faults_aborts_total and faults_seed_quits_total.
func TestChurnSweepCountsFaults(t *testing.T) {
	set := churnSettings()
	set.Horizon = 1200
	set.Warmup = 300
	set.Replicas = 2
	set.Obs = obs.New()
	res, err := ChurnSweep(context.Background(), set, 1, 7,
		[]float64{0.03}, []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	var aborts, quits uint64
	for _, row := range res.Rows {
		aborts += uint64(row.Aborted)
	}
	for _, row := range res.QuitRows {
		quits += uint64(row.SeedQuits)
	}
	if aborts == 0 || quits == 0 {
		t.Fatalf("no faults to count: %d aborts, %d seed quits", aborts, quits)
	}
	if got := set.Obs.Counter("faults_aborts_total").Value(); got != aborts {
		t.Errorf("faults_aborts_total = %d, want %d", got, aborts)
	}
	if got := set.Obs.Counter("faults_seed_quits_total").Value(); got != quits {
		t.Errorf("faults_seed_quits_total = %d, want %d", got, quits)
	}
}
