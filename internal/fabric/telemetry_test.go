package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"mfdl/internal/obs"
)

// fakeClock is a mutex-guarded manual clock safe to advance from the
// test goroutine while the coordinator reads it from handler goroutines.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_700_000_000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// postTelemetry pushes one envelope over the wire, the way a worker does.
func postTelemetry(t *testing.T, url string, env telemetryEnvelope) *http.Response {
	t.Helper()
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+pathTelemetry, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func getFleet(t *testing.T, url string) Fleet {
	t.Helper()
	resp, err := http.Get(url + pathFleet)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var f Fleet
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

func getMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + pathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Two real workers, each with its own registry: after the run the
// coordinator's /metrics carries every per-worker series (gauges
// relabeled worker=<id>), and the merged counters equal the sum of the
// per-worker registries — the acceptance identity for fleet metrics.
func TestTelemetryMergedMetrics(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})

	regA, regB := obs.New(), obs.New()
	regA.Gauge("fleettest_last_temp").Set(0.25)
	regB.Gauge("fleettest_last_temp").Set(0.75)

	ctx := context.Background()
	errs := make(chan error, 2)
	go func() {
		errs <- Work(ctx, srv.URL, WorkerOptions{Name: "wa", Parallelism: 2, Obs: regA})
	}()
	go func() {
		errs <- Work(ctx, srv.URL, WorkerOptions{Name: "wb", Parallelism: 2, Obs: regB})
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	// Work's deferred final flush ran before it returned, so the
	// coordinator already holds both workers' terminal snapshots.
	text := getMetrics(t, srv.URL)
	wantSum := regA.Counter("fabric_worker_cells_total", obs.L("worker", "wa")).Value() +
		regB.Counter("fabric_worker_cells_total", obs.L("worker", "wb")).Value()
	if int(wantSum) != len(want) {
		t.Fatalf("workers completed %d cells between them, want %d", wantSum, len(want))
	}
	for _, line := range []string{
		fmt.Sprintf(`fabric_worker_cells_total{worker="wa"} %d`,
			regA.Counter("fabric_worker_cells_total", obs.L("worker", "wa")).Value()),
		fmt.Sprintf(`fabric_worker_cells_total{worker="wb"} %d`,
			regB.Counter("fabric_worker_cells_total", obs.L("worker", "wb")).Value()),
		`fleettest_last_temp{worker="wa"} 0.25`,
		`fleettest_last_temp{worker="wb"} 0.75`,
		fmt.Sprintf(`fabric_cells_completed_total %d`, len(want)),
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("merged /metrics missing %q:\n%s", line, text)
		}
	}

	// The fleet view saw both workers and their pushes landed.
	f := getFleet(t, srv.URL)
	if len(f.Workers) != 2 {
		t.Fatalf("fleet lists %d workers, want 2", len(f.Workers))
	}
	got, err := result(ctx, coord)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
}

// Liveness is judged from heartbeat age against the lease TTL, and the
// straggler flag from per-worker vs fleet median cell seconds: a slowed
// worker is flagged while healthy, a silent worker decays healthy →
// stale → lost within one TTL.
func TestTelemetryLivenessAndStraggler(t *testing.T) {
	spec := testSpec(t)
	clock := newFakeClock()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{
		LeaseTTL: 10 * time.Second, Clock: clock.Now,
	})

	for i := 0; i < 6; i++ {
		coord.ObserveCellSeconds("fast", 0.001)
	}
	coord.ObserveCellSeconds("slow", 0.5)
	coord.ObserveCellSeconds("slow", 0.5)
	if resp := postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "fast", Seq: 1, CellsTotal: 6, CellsPerSec: 60,
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("telemetry push: %s", resp.Status)
	}
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "slow", Seq: 1, CellsTotal: 2, CellsPerSec: 2,
	})

	f := getFleet(t, srv.URL)
	if f.Healthy != 2 || f.Stale != 0 || f.Lost != 0 {
		t.Fatalf("fresh fleet = %d/%d/%d healthy/stale/lost, want 2/0/0", f.Healthy, f.Stale, f.Lost)
	}
	if f.CellsPerSec != 62 {
		t.Fatalf("fleet cells/sec = %v, want 62", f.CellsPerSec)
	}
	byName := map[string]FleetWorker{}
	for _, w := range f.Workers {
		byName[w.Worker] = w
	}
	if !byName["slow"].Straggler {
		t.Fatalf("slow worker not flagged as straggler: %+v (fleet p50 %v)", byName["slow"], f.CellSecondsP50)
	}
	if byName["fast"].Straggler {
		t.Fatalf("fast worker wrongly flagged as straggler: %+v", byName["fast"])
	}

	// Silence both workers past half the TTL: stale, still counted in
	// the fleet rate denominator.
	clock.Advance(6 * time.Second)
	if f = getFleet(t, srv.URL); f.Healthy != 0 || f.Stale != 2 || f.Lost != 0 {
		t.Fatalf("aged fleet = %d/%d/%d healthy/stale/lost, want 0/2/0", f.Healthy, f.Stale, f.Lost)
	}
	// One more beat revives "fast"; "slow" crosses the full TTL and is
	// lost — within one TTL of its last heartbeat, as required.
	clock.Advance(5 * time.Second)
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "fast", Seq: 2, CellsTotal: 6,
	})
	if f = getFleet(t, srv.URL); f.Healthy != 1 || f.Stale != 0 || f.Lost != 1 {
		t.Fatalf("decayed fleet = %d/%d/%d healthy/stale/lost, want 1/0/1", f.Healthy, f.Stale, f.Lost)
	}

	// The liveness gauges land in /metrics alongside the push counters.
	text := getMetrics(t, srv.URL)
	for _, line := range []string{
		"fabric_workers_healthy 1", "fabric_workers_lost 1",
		"fabric_telemetry_pushes_total 3",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("/metrics missing %q:\n%s", line, text)
		}
	}
}

// Bad envelopes are rejected and counted, never stored.
func TestTelemetryRejectsBadEnvelopes(t *testing.T) {
	spec := testSpec(t)
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})
	if resp := postTelemetry(t, srv.URL, telemetryEnvelope{Schema: 99, Worker: "w"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("wrong-schema push: %s, want 400", resp.Status)
	}
	if resp := postTelemetry(t, srv.URL, telemetryEnvelope{Schema: telemetrySchemaVersion}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("anonymous push: %s, want 400", resp.Status)
	}
	env := telemetryEnvelope{Schema: telemetrySchemaVersion, Worker: "w"}
	env.Snapshot = json.RawMessage(`{"schema":42}`)
	if resp := postTelemetry(t, srv.URL, env); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-snapshot push: %s, want 400", resp.Status)
	}
	if f := getFleet(t, srv.URL); len(f.Workers) != 0 {
		t.Fatalf("rejected pushes created %d fleet entries", len(f.Workers))
	}
	if n := coord.obsTelemetryBad.Value(); n != 3 {
		t.Fatalf("bad-push counter = %d, want 3", n)
	}
}

// Spans shipped inside telemetry envelopes are re-emitted into the
// coordinator's trace sink with their origin pids intact, so one Chrome
// trace interleaves every process of the fleet.
func TestTelemetryTraceAssembly(t *testing.T) {
	spec := testSpec(t)
	reg := obs.New()
	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	reg.SetSpanSink(tw)
	_, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: reg})

	base := time.Unix(1_700_000_000, 0)
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "wa", Seq: 1,
		Spans: []wireSpan{{
			Name: "cell", Pid: 101, StartNano: base.UnixNano(),
			DurNano: int64(5 * time.Millisecond),
			Labels:  []obs.Label{obs.L("worker", "wa")},
		}},
	})
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "wb", Seq: 1,
		Spans: []wireSpan{{
			Name: "cell", Pid: 202, StartNano: base.Add(time.Millisecond).UnixNano(),
			DurNano: int64(3 * time.Millisecond),
		}},
	})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	if !strings.Contains(out, `"pid":101`) || !strings.Contains(out, `"pid":202`) {
		t.Fatalf("assembled trace missing per-process pids:\n%s", out)
	}
	var events []map[string]any
	if err := json.Unmarshal(trace.Bytes(), &events); err != nil {
		t.Fatalf("assembled trace is not valid JSON: %v\n%s", err, out)
	}
	if len(events) != 2 {
		t.Fatalf("assembled trace has %d events, want 2", len(events))
	}
}

// End to end: a worker's SpanCollector drains into its heartbeat pushes
// and the spans land in the coordinator's trace.
func TestWorkerShipsCollectedSpans(t *testing.T) {
	spec := testSpec(t)
	creg := obs.New()
	var trace bytes.Buffer
	tw := obs.NewTraceWriter(&trace)
	creg.SetSpanSink(tw)
	_, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: creg})

	wreg := obs.New()
	col := obs.NewSpanCollector(0)
	wreg.SetSpanSink(col)
	wreg.SetSpanIdentity(4242, obs.L("worker", "wa"))
	sp := wreg.StartSpan("warmup")
	sp.End()

	if err := Work(context.Background(), srv.URL, WorkerOptions{
		Name: "wa", Obs: wreg, Spans: col,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	out := trace.String()
	if !strings.Contains(out, `"name":"warmup"`) || !strings.Contains(out, `"pid":4242`) {
		t.Fatalf("worker spans never reached the coordinator trace:\n%s", out)
	}
}

// alwaysDrop fails every /complete post without delivering it: the cell
// result is genuinely lost and the worker must say so rather than count
// the cell as done.
type alwaysDrop struct{}

func (alwaysDrop) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, pathComplete) {
		return nil, fmt.Errorf("connection reset before write")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// Satellite fix: a completion post that fails after all retries is
// surfaced — counted in fabric_completions_failed_total and returned as
// an error — instead of the pre-fix silent loss.
func TestWorkerCompletionLossSurfaces(t *testing.T) {
	spec := testSpec(t)
	reg := obs.New()
	_, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})

	err := Work(context.Background(), srv.URL, WorkerOptions{
		Name: "lossy", Obs: reg, Heartbeat: -1,
		Client:  &http.Client{Transport: alwaysDrop{}},
		Retries: 1, Backoff: time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "completion lost") {
		t.Fatalf("lost completion returned %v, want a completion-lost error", err)
	}
	if n := reg.Counter("fabric_completions_failed_total", obs.L("worker", "lossy")).Value(); n == 0 {
		t.Fatal("fabric_completions_failed_total never incremented")
	}
	if n := reg.Counter("fabric_worker_cells_total", obs.L("worker", "lossy")).Value(); n != 0 {
		t.Fatalf("worker counted %d cells as done despite losing them", n)
	}
}

// Telemetry traffic is pure observation: with fast heartbeats, span
// shipping and concurrent /metrics + /v1/fleet scrapes hammering the
// coordinator, the assembled grid is still bit-identical to a local run.
// This is the tier-2 -race hammer.
func TestTelemetryConcurrentWithTraffic(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	creg := obs.New()
	var trace bytes.Buffer
	creg.SetSpanSink(obs.NewTraceWriter(&trace))
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: creg})

	stop := make(chan struct{})
	var scrapes sync.WaitGroup
	scrapes.Add(1)
	go func() {
		defer scrapes.Done()
		for {
			select {
			case <-stop:
				return
			default:
				getMetrics(t, srv.URL)
				getFleet(t, srv.URL)
			}
		}
	}()

	ctx := context.Background()
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			wreg := obs.New()
			col := obs.NewSpanCollector(0)
			wreg.SetSpanSink(col)
			wreg.SetSpanIdentity(1000+i, obs.L("worker", fmt.Sprintf("w%d", i)))
			errs <- Work(ctx, srv.URL, WorkerOptions{
				Name: fmt.Sprintf("w%d", i), Parallelism: 2,
				Obs: wreg, Spans: col, Heartbeat: time.Millisecond,
			})
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	scrapes.Wait()

	got, err := result(ctx, coord)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
}

// A worker restarting under the same name starts a new epoch with seq
// back at 1; the coordinator accepts the new run immediately instead of
// dropping its pushes until seq outruns the previous run's counter.
func TestTelemetryRestartedWorkerSupersedes(t *testing.T) {
	spec := testSpec(t)
	_, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "w", Epoch: 100, Seq: 57, CellsTotal: 40,
	})
	// The restarted run: newer epoch, sequence reset to 1.
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "w", Epoch: 200, Seq: 1, CellsTotal: 3,
	})
	f := getFleet(t, srv.URL)
	if len(f.Workers) != 1 || f.Workers[0].CellsTotal != 3 {
		t.Fatalf("fleet after restart = %+v, want the new run's 3 cells", f.Workers)
	}
	// A straggling beat from the dead run must not roll the table back.
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "w", Epoch: 100, Seq: 58, CellsTotal: 41,
	})
	if f = getFleet(t, srv.URL); f.Workers[0].CellsTotal != 3 {
		t.Fatalf("stale-epoch push rolled the table back: %+v", f.Workers)
	}
}

// A snapshot that fails to merge partway through (a counter family that
// merges cleanly sorted ahead of a histogram whose bounds conflict) must
// leave no trace in the served /metrics view — all or nothing per worker.
func TestTelemetryUnmergeableSnapshotLeavesNoPartialData(t *testing.T) {
	spec := testSpec(t)
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})
	// The coordinator already owns fabric_cell_seconds with the standard
	// bounds.
	coord.ObserveCellSeconds("w", 0.01)
	wreg := obs.New()
	wreg.Counter("aaa_canary_total").Add(5)
	wreg.Histogram("fabric_cell_seconds", []float64{1, 2, 3}).Observe(0.5)
	snap, err := obs.EncodeSnapshot(wreg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	postTelemetry(t, srv.URL, telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "w", Seq: 1, Snapshot: snap,
	})
	if text := getMetrics(t, srv.URL); strings.Contains(text, "aaa_canary_total") {
		t.Fatalf("half-merged worker data leaked into /metrics:\n%s", text)
	}
	if n := coord.obsTelemetryUnmerged.Value(); n != 1 {
		t.Fatalf("unmerged counter = %d, want 1", n)
	}
}
