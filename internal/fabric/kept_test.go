package fabric

import (
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// files lists the regular files under dir.
func files(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkPayloads demands the job's payloads byte-identical to a local run's.
func checkPayloads(t *testing.T, coord *Coordinator, want [][]byte) {
	t.Helper()
	got, err := coord.Payloads(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("payload %d differs from the local run's", i)
		}
	}
}

// serveTwoWorkers serves spec to two workers that share the coordinator's
// sample store (nil for none) and waits for the last cell.
func serveTwoWorkers(t *testing.T, spec runner.JobSpec, ckptDir string, samples *diskcache.SampleStore) *Coordinator {
	t.Helper()
	coord, srv := newFabric(t, spec, ckptDir, CoordinatorOptions{Samples: samples, LeaseCells: 2})
	ctx := context.Background()
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { errs <- Work(ctx, srv.URL, WorkerOptions{Name: fmt.Sprintf("w%d", i), Samples: samples}) }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	return coord
}

// A sim-replica cell served over a shared sample store is kept once, as
// its sample: the workers store every sample, and the coordinator writes
// no checkpoint and no second copy.
func TestSampleIsTheOnlyCopy(t *testing.T) {
	spec := simTestSpec(t, 11, 3)
	want, err := runner.RunJobPayloads(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	samples, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	samples.WithObs(reg)
	ckptDir := t.TempDir()
	coord := serveTwoWorkers(t, spec, ckptDir, samples)
	if f := files(t, ckptDir); len(f) != 0 {
		t.Fatalf("the checkpoint directory holds %v", f)
	}
	if n := reg.Counter("samplestore_stores_total").Value(); int(n) != len(want) {
		t.Fatalf("samplestore_stores_total = %d, want one per cell (%d)", n, len(want))
	}
	checkPayloads(t, coord, want)
}

// A fluid-sweep job has no sample identity: every cell is checkpointed,
// even beside a sample store, and nothing lands in the sample store.
func TestFluidCellsAreCheckpointed(t *testing.T) {
	spec := schedSpec(t)
	want, err := runner.RunJobPayloads(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sampleDir, ckptDir := t.TempDir(), t.TempDir()
	samples, err := diskcache.OpenSamples(sampleDir)
	if err != nil {
		t.Fatal(err)
	}
	coord := serveTwoWorkers(t, spec, ckptDir, samples)
	if f := files(t, ckptDir); len(f) != len(want) {
		t.Fatalf("%d checkpoint files, want one per cell (%d): %v", len(f), len(want), f)
	}
	if f := files(t, sampleDir); len(f) != 0 {
		t.Fatalf("the sample directory holds %v", f)
	}
	checkPayloads(t, coord, want)
}

// A cell that an earlier build kept as a checkpoint only — its sample
// missing — resumes from the checkpoint and is returned byte-identically
// beside cells resumed from samples and cells computed afresh.
func TestCheckpointOnlyCellResumes(t *testing.T) {
	spec := simTestSpec(t, 11, 2) // 4 executable cells
	want, err := runner.RunJobPayloads(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ckpt, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	samples, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fp := spec.Fingerprint()
	if err := ckpt.PutEntry(diskcache.Entry{Schema: diskcache.CheckpointSchemaVersion, Key: fp, Cell: 1, Payload: want[1]}); err != nil {
		t.Fatal(err)
	}
	kind, _ := runner.LookupJobKind(spec.Kind)
	key, seed, _ := kind.SampleRef(spec, 2)
	if err := samples.Put(key, seed, want[2]); err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	coord, err := NewCoordinator(spec, ckpt, CoordinatorOptions{Samples: samples, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("fabric_cells_resumed_total").Value(); n != 2 {
		t.Fatalf("resumed %d cells, want 2 (cell 1 checkpointed, cell 2 sampled)", n)
	}
	for _, cell := range []int{0, 3} {
		e := diskcache.Entry{Schema: diskcache.CheckpointSchemaVersion, Key: fp, Cell: cell, Payload: want[cell]}
		if dup, err := coord.Complete(e); dup || err != nil {
			t.Fatalf("Complete(cell %d) = duplicate %v, error %v", cell, dup, err)
		}
	}
	checkPayloads(t, coord, want)
}

// Every duplicate completion is audited against the kept copy, and so is a
// stored sample a completion finds: a cell is a pure function of (spec,
// cell), so a second, different payload is counted in
// fabric_cells_divergent_total and fails Payloads, naming the lowest such
// cell. A duplicate that agrees is absorbed as before.
func TestDivergentCompletionsFailTheJob(t *testing.T) {
	sim := simTestSpec(t, 11, 2)
	fluid := schedSpec(t)
	for _, tc := range []struct {
		name    string
		spec    runner.JobSpec
		samples bool
		plant   bool   // a wrong sample for cell 1 appears before it completes
		second  string // cell 0's duplicate payload; "" repeats the right one
		want    string // what Payloads' error names; "" for no error
	}{
		{name: "agreeing duplicate, checkpoint", spec: fluid},
		{name: "agreeing duplicate, sample", spec: sim, samples: true},
		{name: "divergent duplicate, checkpoint", spec: fluid, second: "x", want: "cell 0 "},
		{name: "divergent duplicate, sample", spec: sim, samples: true, second: "x", want: "cell 0 "},
		{name: "divergent stored sample", spec: sim, samples: true, plant: true, want: "cell 1 "},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := runner.RunJobPayloads(context.Background(), tc.spec, runner.JobEnv{}, runner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ckpt, err := diskcache.OpenCheckpoint(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			opts := CoordinatorOptions{Obs: obs.New()}
			if tc.samples {
				if opts.Samples, err = diskcache.OpenSamples(t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			coord, err := NewCoordinator(tc.spec, ckpt, opts)
			if err != nil {
				t.Fatal(err)
			}
			complete := func(cell int, payload []byte) bool {
				t.Helper()
				dup, err := coord.Complete(diskcache.Entry{
					Schema: diskcache.CheckpointSchemaVersion, Key: coord.fp, Cell: cell, Payload: payload,
				})
				if err != nil {
					t.Fatal(err)
				}
				return dup
			}
			if tc.plant {
				key, seed, _ := coord.sampleRef(1)
				if err := opts.Samples.Put(key, seed, []byte("another sample")); err != nil {
					t.Fatal(err)
				}
			}
			for cell := range want {
				if complete(cell, want[cell]) {
					t.Fatalf("first completion of cell %d was a duplicate", cell)
				}
			}
			second := want[0]
			if tc.second != "" {
				second = []byte(tc.second)
			}
			if !complete(0, second) {
				t.Fatal("a second completion of cell 0 was not a duplicate")
			}
			divergent := opts.Obs.Counter("fabric_cells_divergent_total").Value()
			_, err = coord.Payloads(context.Background())
			if tc.want == "" {
				if divergent != 0 || err != nil {
					t.Fatalf("divergent = %d, Payloads error %v; want 0 and none", divergent, err)
				}
				return
			}
			if divergent != 1 {
				t.Fatalf("fabric_cells_divergent_total = %d, want 1", divergent)
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Payloads error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
