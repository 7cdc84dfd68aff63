package fabric

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mfdl/internal/eventsim"
	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
)

// simTestSpec is a small sim-replica job: two flow-level MTCD cells
// (p = 0.5, 0.9) at the given base seed and replica count.
func simTestSpec(t testing.TB, seed uint64, replicas int) runner.JobSpec {
	t.Helper()
	mk := func(p float64) sim.JobCell {
		cfg := &eventsim.Config{
			Params:  fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5},
			K:       4,
			Lambda0: 1,
			P:       p,
			Horizon: 120,
			Warmup:  20,
		}
		return sim.JobCell{Scheme: scheme.SimMTCD, Config: sim.Config{Flow: cfg}}
	}
	spec, err := sim.NewJobSpec([]sim.JobCell{mk(0.5), mk(0.9)}, seed, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// A sim-replica job distributed over several workers assembles the exact
// payload bytes — and therefore the exact aggregates — of a local run.
func TestSimJobDistributedMatchesLocal(t *testing.T) {
	spec := simTestSpec(t, 11, 3)
	ctx := context.Background()
	wantPayloads, err := runner.RunJobPayloads(ctx, spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantAggs, err := sim.ReduceJob(spec, wantPayloads)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: reg, LeaseCells: 2})
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			errs <- Work(ctx, srv.URL, WorkerOptions{
				Name: fmt.Sprintf("sim-w%d", i), Parallelism: 2, Obs: reg,
			})
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	gotPayloads, err := coord.Payloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPayloads) != len(wantPayloads) {
		t.Fatalf("distributed run shipped %d payloads, want %d", len(gotPayloads), len(wantPayloads))
	}
	for i := range wantPayloads {
		if !bytes.Equal(gotPayloads[i], wantPayloads[i]) {
			t.Fatalf("payload %d differs from the local bytes:\n got %s\nwant %s",
				i, gotPayloads[i], wantPayloads[i])
		}
	}
	gotAggs, err := sim.ReduceJob(spec, gotPayloads)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAggs, wantAggs) {
		t.Fatal("distributed aggregates differ from the local run")
	}
}

// Growing R across coordinators reuses every stored sample: a fresh
// coordinator (fresh checkpoint store) over the same sample store marks
// the already-drawn replicas done at startup and only distributes the new
// ones.
func TestSimJobSampleReuseAcrossCoordinators(t *testing.T) {
	ctx := context.Background()
	samples, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// First campaign: R = 2, both cells' samples end up in the store.
	small := simTestSpec(t, 11, 2)
	_, srv1 := newFabric(t, small, t.TempDir(), CoordinatorOptions{Samples: samples})
	if err := Work(ctx, srv1.URL, WorkerOptions{Name: "r2", Samples: samples}); err != nil {
		t.Fatal(err)
	}
	if n, err := samples.Len(sampleKeyOf(t, small, 0)); err != nil || n != 2 {
		t.Fatalf("cell 0 holds %d samples (%v), want 2", n, err)
	}

	// Second campaign doubles R with a brand-new checkpoint store: the only
	// carrier between the runs is the sample store.
	big := simTestSpec(t, 11, 4)
	reg := obs.New()
	coord2, srv2 := newFabric(t, big, t.TempDir(), CoordinatorOptions{Samples: samples, Obs: reg})
	if resumed := int(reg.Counter("fabric_cells_resumed_total").Value()); resumed != 4 {
		t.Fatalf("resumed %d executable cells, want the 4 stored replicas (2 cells × R=2)", resumed)
	}
	if err := Work(ctx, srv2.URL, WorkerOptions{Name: "r4", Samples: samples}); err != nil {
		t.Fatal(err)
	}
	payloads, err := coord2.Payloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.ReduceJob(big, payloads)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunJob(ctx, big, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("grown distributed run differs from a from-scratch local run")
	}
}

func sampleKeyOf(t *testing.T, spec runner.JobSpec, cell int) string {
	t.Helper()
	p, err := sim.Params(spec)
	if err != nil {
		t.Fatal(err)
	}
	key, err := p.Cells[cell].SampleKey()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// A worker presented with a job kind its build does not register refuses
// up front — it never leases cells it cannot execute.
func TestWorkerRejectsUnknownKind(t *testing.T) {
	spec := simTestSpec(t, 1, 1)
	data, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"sim-replica"`), []byte(`"mystery-kind"`), 1)
	var leased bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathJob {
			w.Write(data)
			return
		}
		leased = true
		http.Error(w, "should never get here", http.StatusInternalServerError)
	}))
	defer srv.Close()
	err = Work(context.Background(), srv.URL, WorkerOptions{Name: "wary"})
	if err == nil || !strings.Contains(err.Error(), "unknown job kind") {
		t.Fatalf("Work() = %v, want an unknown-kind rejection", err)
	}
	if leased {
		t.Fatal("worker tried to lease cells of a kind it cannot execute")
	}
}

// The completion gate is kind-agnostic: a sim-replica coordinator rejects
// foreign fingerprints with 409 and wrong envelope schemas with 400, and
// neither touches its state.
func TestSimCoordinatorRejectsForeignCompletions(t *testing.T) {
	spec := simTestSpec(t, 1, 2)
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
		Key:    "job v1 sim-replica from-another-study", Cell: 0, Payload: []byte("x"),
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

// R = 1 through the fabric is the unreplicated golden: each grid cell's
// aggregate collapses to the single sample drawn under the base seed.
func TestSimJobFabricR1MatchesUnreplicated(t *testing.T) {
	ctx := context.Background()
	spec := simTestSpec(t, 5, 1)
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})
	if err := Work(ctx, srv.URL, WorkerOptions{Name: "solo"}); err != nil {
		t.Fatal(err)
	}
	payloads, err := coord.Payloads(ctx)
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := sim.ReduceJob(spec, payloads)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Params(spec)
	if err != nil {
		t.Fatal(err)
	}
	for cell, c := range p.Cells {
		s, err := sim.New(c.Scheme, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := s.Simulate(ctx, replica.Rep{Cell: cell, Replica: 0, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		if got := aggs[cell].Mean(replica.OnlinePerFile); got != direct.Values[replica.OnlinePerFile] {
			t.Errorf("cell %d: fabric R=1 mean %v, want unreplicated %v",
				cell, got, direct.Values[replica.OnlinePerFile])
		}
	}
}
