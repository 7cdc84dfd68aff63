package fabric

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

func testSpec(t *testing.T) runner.JobSpec {
	t.Helper()
	spec := runner.JobSpec{
		Schema: runner.JobSpecSchemaVersion,
		Kind:   runner.JobKindFluidSweep,
		Base: runner.Key{
			Scheme: scheme.MTCD, Params: fluid.PaperParams,
			K: 5, P: 0.9, Lambda0: 1,
		},
		Dims: []runner.Dim{
			{Name: "p", Values: runner.Linspace(0.1, 0.9, 5)},
			{Name: "lambda0", Values: []float64{0.5, 2}},
		},
		Seed: 7,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// localCells is the single-process ground truth every distributed run
// must reproduce bit for bit.
func localCells(t *testing.T, spec runner.JobSpec) []runner.CellValue {
	t.Helper()
	cells, err := runner.RunJob(context.Background(), spec, nil, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

func newFabric(t *testing.T, spec runner.JobSpec, dir string, opts CoordinatorOptions) (*Coordinator, *httptest.Server) {
	t.Helper()
	store, err := diskcache.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, store, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler())
	t.Cleanup(srv.Close)
	return coord, srv
}

// result waits for the job and decodes its fluid cells from the payloads,
// as experiments.SweepSpec.Serve does.
func result(ctx context.Context, c *Coordinator) ([]runner.CellValue, error) {
	payloads, err := c.Payloads(ctx)
	if err != nil {
		return nil, err
	}
	cells := make([]runner.CellValue, len(payloads))
	for i, p := range payloads {
		if cells[i], err = runner.DecodeCellValue(p); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// assertIdentical demands bit-identical cells (reflect.DeepEqual compares
// float64s exactly; the values here are finite).
func assertIdentical(t *testing.T, got, want []runner.CellValue) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed cells differ from the local run:\n got %+v\nwant %+v", got, want)
	}
}

// Three healthy workers, arbitrary interleaving: the assembled grid is
// bit-identical to a single-process run of the same JobSpec.
func TestDistributedMatchesLocal(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	reg := obs.New()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: reg})

	ctx := context.Background()
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			errs <- Work(ctx, srv.URL, WorkerOptions{
				Name: fmt.Sprintf("w%d", i), Parallelism: 2, Obs: reg,
			})
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got, err := result(ctx, coord)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
	if n := reg.Counter("fabric_cells_completed_total").Value(); int(n) != len(want) {
		t.Fatalf("completed counter = %d, want %d", n, len(want))
	}
}

// A worker killed mid-lease forfeits its cells after the TTL: another
// worker steals them and the final grid is still bit-identical.
func TestWorkerKilledMidLeaseIsStolen(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	reg := obs.New()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{
		LeaseTTL: 100 * time.Millisecond, Obs: reg,
	})

	// Worker A dies the instant it is granted its first lease: the cells
	// stay leased — never computed, never released — until the TTL reaps
	// them.
	ctxA, killA := context.WithCancel(context.Background())
	errA := Work(ctxA, srv.URL, WorkerOptions{
		Name: "doomed", Parallelism: 4,
		OnLease: func(id string, cells []int) { killA() },
	})
	if errA != context.Canceled {
		t.Fatalf("killed worker returned %v, want context.Canceled", errA)
	}
	if st := coord.Status(); st.Done != 0 {
		t.Fatalf("doomed worker completed %d cells, want 0", st.Done)
	}

	if err := Work(context.Background(), srv.URL, WorkerOptions{
		Name: "thief", Parallelism: 2,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := result(context.Background(), coord)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
	if n := reg.Counter("fabric_leases_expired_total").Value(); n == 0 {
		t.Fatal("no lease expired; the steal path never ran")
	}
}

// dropAfterSend lets one /complete request reach the coordinator and then
// reports a transport error to the caller — the classic "did my write
// land?" failure. The worker must retry and the coordinator must absorb
// the duplicate.
type dropAfterSend struct {
	dropped atomic.Bool
}

func (d *dropAfterSend) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(req.URL.Path, pathComplete) && !d.dropped.Swap(true) {
		resp.Body.Close()
		return nil, fmt.Errorf("connection reset after write")
	}
	return resp, nil
}

func TestWorkerKilledMidWriteDuplicatesAreAbsorbed(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	reg := obs.New()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: reg})

	err := Work(context.Background(), srv.URL, WorkerOptions{
		Name: "flaky", Parallelism: 2,
		Client:  &http.Client{Transport: &dropAfterSend{}},
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := result(context.Background(), coord)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
	if n := reg.Counter("fabric_cells_duplicate_total").Value(); n == 0 {
		t.Fatal("no duplicate completion recorded; the retry never happened")
	}
}

// A coordinator restarted over the same checkpoint store resumes from the
// cells already delivered instead of recomputing them.
func TestCoordinatorRestartResumes(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	dir := t.TempDir()
	coord1, srv1 := newFabric(t, spec, dir, CoordinatorOptions{LeaseCells: 2})

	// The first worker posts a lease of cells, then its process dies with
	// the next lease computed but not posted.
	ctx1, kill := context.WithCancel(context.Background())
	var posted atomic.Int32
	err := Work(ctx1, srv1.URL, WorkerOptions{
		Name: "partial",
		OnCell: func(cell int) {
			if posted.Add(1) > 3 {
				kill()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("partial worker returned %v, want context.Canceled", err)
	}
	partial := coord1.Status().Done
	if partial == 0 || partial == len(want) {
		t.Fatalf("partial run completed %d/%d cells; the test needs a strict subset", partial, len(want))
	}
	srv1.Close()

	// Restart: a fresh coordinator over the same store.
	reg := obs.New()
	coord2, srv2 := newFabric(t, spec, dir, CoordinatorOptions{Obs: reg})
	if resumed := int(reg.Counter("fabric_cells_resumed_total").Value()); resumed != partial {
		t.Fatalf("resumed %d cells, want the %d completed before the restart", resumed, partial)
	}
	if err := Work(context.Background(), srv2.URL, WorkerOptions{Name: "finisher"}); err != nil {
		t.Fatal(err)
	}
	got, err := result(context.Background(), coord2)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
}

// Completions carrying a foreign fingerprint or a wrong schema must never
// reach the store.
func TestCoordinatorRejectsForeignCompletions(t *testing.T) {
	spec := testSpec(t)
	reg := obs.New()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: reg})

	post := func(e diskcache.Entry) int {
		t.Helper()
		body, err := e.Encode()
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+pathComplete, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	foreign := diskcache.Entry{
		Schema: diskcache.CheckpointSchemaVersion,
		Key:    "job v1 fluid-sweep from-some-other-study", Cell: 0, Payload: []byte("x"),
	}
	if code := post(foreign); code != http.StatusConflict {
		t.Fatalf("foreign completion got %d, want %d", code, http.StatusConflict)
	}
	badSchema := diskcache.Entry{
		Schema: diskcache.CheckpointSchemaVersion + 1,
		Key:    coord.fp, Cell: 0, Payload: []byte("x"),
	}
	if code := post(badSchema); code != http.StatusBadRequest {
		t.Fatalf("wrong-schema completion got %d, want %d", code, http.StatusBadRequest)
	}
	if n := reg.Counter("fabric_cells_foreign_total").Value(); n != 1 {
		t.Fatalf("foreign counter = %d, want 1", n)
	}
	if st := coord.Status(); st.Done != 0 {
		t.Fatalf("rejected completions marked %d cells done", st.Done)
	}
}
