package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/rng"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// cleanJob is a deterministic job whose result depends on both the cell
// value and the cell's stream, so any resume bug that replays a wrong
// stream shows up in the bits.
func cleanJob(_ context.Context, p Point, src *rng.Source) (float64, error) {
	v, _ := p.Value("i")
	return v + src.Float64(), nil
}

func indexedGrid(t *testing.T, n int) Grid {
	t.Helper()
	g, err := Indexed("i", n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunPanicBecomesCellError(t *testing.T) {
	g := indexedGrid(t, 8)
	_, err := Run(context.Background(), g,
		func(ctx context.Context, p Point, src *rng.Source) (float64, error) {
			if p.Index == 3 {
				panic("boom")
			}
			return cleanJob(ctx, p, src)
		}, Options{Workers: 4, Seed: 1})
	if err == nil {
		t.Fatal("panicking cell did not fail the run")
	}
	var pe *CellPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a CellPanicError: %v", err)
	}
	if pe.Value != "boom" || !strings.Contains(pe.Cell, "i=3") {
		t.Fatalf("wrong panic payload: cell %q value %v", pe.Cell, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

// A failing cell runs once: a job error is taken at face value.
func TestRunDoesNotRetryPlainErrors(t *testing.T) {
	g := indexedGrid(t, 1)
	var attempts atomic.Int64
	_, err := Run(context.Background(), g,
		func(context.Context, Point, *rng.Source) (int, error) {
			attempts.Add(1)
			return 0, errors.New("deterministic failure")
		}, Options{Workers: 1})
	if err == nil {
		t.Fatal("want error")
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("plain error was retried: attempts = %d", n)
	}
}

// persisted counts the cells of a job of n cells that ck holds.
func persisted(ck *Checkpoint, n int) int {
	held := 0
	for i := 0; i < n; i++ {
		if _, ok := ck.LoadRaw(i); ok {
			held++
		}
	}
	return held
}

// TestRunCheckpointResume is the crash-safety contract: a job killed
// mid-grid resumes from the checkpointed cells and produces results
// bit-identical to an uninterrupted run, without re-solving the cells that
// had completed.
func TestRunCheckpointResume(t *testing.T) {
	spec := testJobSpec()
	want, err := RunJob(context.Background(), spec, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := len(want)

	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ck := NewCheckpoint(store, spec.Fingerprint())

	// First run is "killed" after four cells completed and were flushed
	// (Workers=1 makes the completed prefix deterministic).
	ctx, kill := context.WithCancel(context.Background())
	done := 0
	_, err = RunJob(ctx, spec, nil, Options{Workers: 1, Checkpoint: ck, Hooks: Hooks{
		OnCell: func(Point, error) {
			if done++; done == 4 {
				kill()
			}
		},
	}})
	kill()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run returned %v, want context.Canceled", err)
	}
	if got := persisted(ck, n); got != 4 {
		t.Fatalf("checkpointed cells = %d, want 4", got)
	}

	// Resume: the persisted cells replay, the rest solve fresh.
	ob := obs.New()
	got, err := RunJob(context.Background(), spec, NewCache().WithObs(ob),
		Options{Workers: 3, Checkpoint: ck, Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed run diverged:\n got %v\nwant %v", got, want)
	}
	if solves := ob.Counter("solvecache_solves_total").Value(); solves != uint64(n-4) {
		t.Fatalf("resume solved %d cells, want %d", solves, n-4)
	}
	if r := ob.Counter("runner_cells_resumed_total").Value(); r != 4 {
		t.Fatalf("resumed counter = %d, want 4", r)
	}
	if err := ck.Clear(); err != nil {
		t.Fatal(err)
	}
	if left := persisted(ck, n); left != 0 {
		t.Fatalf("Clear left %d cells", left)
	}
}

// TestRunCheckpointIgnoresForeignRun: a different run key never replays
// another run's cells, even over the same store.
func TestRunCheckpointIgnoresForeignRun(t *testing.T) {
	spec := testJobSpec()
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunJob(context.Background(), spec, nil,
		Options{Workers: 2, Checkpoint: NewCheckpoint(store, "run A")}); err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	if _, err := RunJob(context.Background(), spec, NewCache().WithObs(ob),
		Options{Workers: 2, Checkpoint: NewCheckpoint(store, "run B"), Obs: ob}); err != nil {
		t.Fatal(err)
	}
	if r := ob.Counter("runner_cells_resumed_total").Value(); r != 0 {
		t.Fatalf("foreign checkpoints were replayed: %d cells", r)
	}
}

func TestCheckpointNilIsDisabled(t *testing.T) {
	ck := NewCheckpoint(nil, "anything")
	if ck != nil {
		t.Fatal("nil store must yield a nil checkpoint")
	}
	if err := ck.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ck.LoadRaw(0); ok {
		t.Fatal("nil checkpoint reported a hit")
	}
	ck.SaveRaw(0, []byte("x")) // must not panic
	if _, err := RunJob(context.Background(), testJobSpec(), nil, Options{Workers: 2, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
}

// An entry that is not a cell value's encoding reads as a miss: the cell
// is solved again and the run's output is unchanged.
func TestCheckpointUndecodablePayloadIsMiss(t *testing.T) {
	spec := testJobSpec()
	want, err := RunJob(context.Background(), spec, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(spec.Fingerprint(), 0, []byte("not gob at all")); err != nil {
		t.Fatal(err)
	}
	ob := obs.New()
	got, err := RunJob(context.Background(), spec, nil,
		Options{Workers: 1, Checkpoint: NewCheckpoint(store, spec.Fingerprint()), Obs: ob})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run over an undecodable checkpoint diverged:\n got %v\nwant %v", got, want)
	}
	if r := ob.Counter("runner_cells_resumed_total").Value(); r != 0 {
		t.Fatalf("undecodable payload read as a hit (%d resumed)", r)
	}
}

func ExampleNewCheckpoint() {
	dir, _ := os.MkdirTemp("", "ckpt")
	defer os.RemoveAll(dir)
	store, _ := diskcache.OpenCheckpoint(dir)
	spec := JobSpec{
		Schema: JobSpecSchemaVersion, Kind: JobKindFluidSweep,
		Base: Key{Scheme: scheme.MTCD, Params: fluid.PaperParams, K: 10, Lambda0: 1},
		Dims: []Dim{{Name: "p", Values: []float64{0.3, 0.6, 0.9}}},
	}
	ckpt := NewCheckpoint(store, spec.Fingerprint())
	for run := 1; run <= 2; run++ {
		reg := obs.New()
		if _, err := RunJob(context.Background(), spec, nil, Options{Checkpoint: ckpt, Obs: reg}); err != nil {
			fmt.Println(err)
		}
		fmt.Printf("run %d: %d of 3 cells replayed\n", run, reg.Counter("runner_cells_resumed_total").Value())
	}
	// Output:
	// run 1: 0 of 3 cells replayed
	// run 2: 3 of 3 cells replayed
}
