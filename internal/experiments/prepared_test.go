package experiments

import (
	"bytes"
	"context"
	"testing"

	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
)

// bareSpec copies a spec's exported fields only: the copy carries no handle
// to a prepared job, so every spec-taking entry point prepares it afresh.
func bareSpec(s runner.JobSpec) runner.JobSpec {
	return runner.JobSpec{
		Schema: s.Schema, Kind: s.Kind, Base: s.Base, Dims: s.Dims,
		Seed: s.Seed, Replicas: s.Replicas, Params: s.Params,
	}
}

// A prepared job is the spec-taking entry points with the re-derivation
// taken out, nothing else: for every cell of E9's job (one of each
// registered kind with Fig. 4a's), the prepared evaluate and sample
// reference equal what runner.EvaluateJobCell and JobKind.SampleRef give
// for a spec that has to be prepared from scratch.
func TestPreparedJobMatchesSpecTakingEntryPoints(t *testing.T) {
	// E9's plan, at a horizon short enough to simulate every cell three
	// times over.
	set := DefaultSimSettings
	set.Horizon, set.Warmup = 300, 60
	set.Options.Replicas = 2
	plan, err := PlanSimValidate(set, []float64{0.9, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 4a's surface as the sweep CLI lowers it, coarser in -short mode.
	pGrid, rhoGrid := runner.Linspace(0.1, 1, 9), runner.Linspace(0, 1, 10)
	if testing.Short() {
		pGrid, rhoGrid = runner.Linspace(0.1, 1, 2), runner.Linspace(0, 1, 2)
	}
	grid, err := runner.NewGrid(runner.Dim{Name: "p", Values: pGrid}, runner.Dim{Name: "rho", Values: rhoGrid})
	if err != nil {
		t.Fatal(err)
	}
	fig4a := SweepSpec{Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: grid}.JobSpec()

	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		spec      runner.JobSpec
		sampleRef func(cell int) (string, uint64) // nil: the kind has none
	}{
		{name: "E9", spec: plan.Spec, sampleRef: func(cell int) (string, uint64) {
			p, err := sim.Params(plan.Spec)
			if err != nil {
				t.Fatal(err)
			}
			key, err := p.Cells[cell/2].SampleKey()
			if err != nil {
				t.Fatal(err)
			}
			return key, replica.SeedOf(plan.Spec.Seed, cell/2, cell%2)
		}},
		{name: "Fig4a", spec: fig4a},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bare := bareSpec(tc.spec)
			job, err := tc.spec.Prepare()
			if err != nil {
				t.Fatal(err)
			}
			if n, err := bare.CellCount(); err != nil || n != job.Cells {
				t.Fatalf("CellCount() = %d, %v; the prepared job has %d cells", n, err, job.Cells)
			}
			if again, err := job.Spec().Prepare(); err != nil || again != job {
				t.Fatalf("the job's own spec prepared to %p, %v; want the same job %p", again, err, job)
			}
			kind, ok := runner.LookupJobKind(tc.spec.Kind)
			if !ok {
				t.Fatalf("kind %q not registered", tc.spec.Kind)
			}
			// One solve cache for all three passes: a fluid cell is solved
			// once and served from memory twice.
			env := runner.JobEnv{Cache: runner.NewCache()}
			local, err := runner.RunJobPayloads(ctx, bare, env, runner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for cell := 0; cell < job.Cells; cell++ {
				prepared, err := job.EvaluateCell(ctx, env, cell)
				if err != nil {
					t.Fatal(err)
				}
				unprepared, err := runner.EvaluateJobCell(ctx, bare, env, cell)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(prepared, unprepared) || !bytes.Equal(prepared, local[cell]) {
					t.Fatalf("cell %d: prepared, spec-taking and local payloads differ", cell)
				}

				key, seed, ok := kind.SampleRef(bare, cell)
				if tc.sampleRef == nil {
					if ok || job.SampleRef != nil {
						t.Fatalf("cell %d: a sample reference from a kind that has none", cell)
					}
				} else {
					wantKey, wantSeed := tc.sampleRef(cell)
					pKey, pSeed, pOK := job.SampleRef(cell)
					if !ok || !pOK || key != wantKey || pKey != wantKey || seed != wantSeed || pSeed != wantSeed {
						t.Fatalf("cell %d: sample ref prepared (%q, %d, %v), spec-taking (%q, %d, %v); want (%q, %d)",
							cell, pKey, pSeed, pOK, key, seed, ok, wantKey, wantSeed)
					}
				}
			}
			if _, _, ok := kind.SampleRef(bare, job.Cells); ok {
				t.Fatal("a sample reference for a cell past the end of the job")
			}
			if _, err := runner.EvaluateJobCell(ctx, tc.spec, env, job.Cells); err == nil {
				t.Fatal("evaluating a cell past the end of the job did not fail")
			}
		})
	}
}

// A spec whose fields were reassigned after it was prepared no longer
// reaches the job it was prepared into.
func TestReassignedSpecDropsItsPreparedJob(t *testing.T) {
	set := DefaultSimSettings
	set.Horizon, set.Warmup = 300, 60
	plan, err := PlanSimValidate(set, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	spec := plan.Spec
	job, err := spec.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	reseeded := spec
	reseeded.Seed++
	other, err := reseeded.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if other == job {
		t.Fatal("a re-seeded spec still resolves to the job prepared for the old seed")
	}
	_, seedA, _ := job.SampleRef(0)
	_, seedB, _ := other.SampleRef(0)
	if seedA == seedB {
		t.Fatalf("both seeds derive replica seed %d for cell 0", seedA)
	}
	if spec.Fingerprint() == other.Spec().Fingerprint() {
		t.Fatal("the re-seeded job reports the old spec")
	}
}
