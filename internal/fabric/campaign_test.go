package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// One campaign serves jobs of any kind in sequence at one address: a fluid
// sweep, then two rounds of a sim-replica job. Every job's payloads are the
// local run's bytes, and the second round, at twice the replicas, leases
// only the replicas the first round did not draw.
func TestCampaignServesJobsInSequence(t *testing.T) {
	dir := t.TempDir()
	reg := obs.New()
	camp := &Campaign{
		Addr: "127.0.0.1:0", AddrFile: filepath.Join(dir, "addr"),
		LocalWorkers: 2, FleetOut: filepath.Join(dir, "fleet.json"),
		Coordinator: CoordinatorOptions{Obs: reg},
	}
	defer camp.Close()
	ctx := context.Background()
	for i, spec := range []runner.JobSpec{testSpec(t), simTestSpec(t, 3, 2), simTestSpec(t, 3, 4)} {
		got, err := camp.Serve(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runner.RunJobPayloads(ctx, spec, runner.JobEnv{}, runner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %d: served payloads differ from the local run", i)
		}
	}
	if n := reg.Counter("fabric_cells_resumed_total").Value(); n != 4 {
		t.Errorf("round two resumed %d cells from the sample store, want round one's 4", n)
	}
	if st := camp.Status(); st.Done != 8 || st.Total != 8 {
		t.Errorf("last job status %+v, want 8/8 done", st)
	}
	if addr, err := os.ReadFile(camp.AddrFile); err != nil || len(addr) == 0 {
		t.Errorf("addr file: %q, %v", addr, err)
	}
	var f Fleet
	if data, err := os.ReadFile(camp.FleetOut); err != nil || json.Unmarshal(data, &f) != nil || f.Status.Done != 8 {
		t.Errorf("fleet file: %+v, %v", f.Status, err)
	}
}

// A worker idling in its poll when the coordinator finishes and exits ends
// cleanly: the job had answered it, and now no retry of its lease gets a
// response.
func TestWorkRetiresWhenCoordinatorExits(t *testing.T) {
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(testSpec(t), store, CoordinatorOptions{LeaseCells: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Every cell is in someone else's hands, so the worker is told to idle.
	if l, _, _ := coord.Lease("holder", 0); l == nil {
		t.Fatal("holder got no lease")
	}
	h := coord.Handler()
	idled := make(chan struct{})
	var once atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if r.URL.Path == pathLease && !once.Swap(true) {
			close(idled)
		}
	}))
	done := make(chan error, 1)
	go func() {
		done <- Work(context.Background(), srv.URL, WorkerOptions{
			Name: "idler", Retries: 2, Backoff: time.Millisecond, Heartbeat: -1,
		})
	}()
	<-idled
	srv.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("idle worker exited with %v after the coordinator retired", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle worker never noticed the coordinator retired")
	}
}

// A worker the job never answered still fails when the coordinator is
// unreachable: at a dead address, and when the connection drops between
// the job fetch and the first lease answer.
func TestWorkNeverReachedFails(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	opts := WorkerOptions{Name: "late", Retries: 1, Backoff: time.Millisecond, Heartbeat: -1}
	if err := Work(context.Background(), dead.URL, opts); err == nil {
		t.Error("worker at a dead address returned nil")
	}
	coord, _ := newFabric(t, testSpec(t), t.TempDir(), CoordinatorOptions{})
	h := coord.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathLease {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()
	if err := Work(context.Background(), srv.URL, opts); err == nil {
		t.Error("worker whose leases never got a response returned nil")
	}
}
