package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mfdl/internal/fabric/chaos"
	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// slowKind is a test-only job kind whose cells sleep for a configured
// time before returning a trivially deterministic payload — the knob the
// lease-renewal tests turn to make a cell outlast the lease TTL without
// touching any real simulator.
const slowKindName = "fabric-test-slow"

type slowParams struct {
	SleepMilli int `json:"sleep_ms"`
}

func init() {
	runner.RegisterJobKind(runner.JobKind{
		Name: slowKindName,
		Prepare: func(spec runner.JobSpec) (*runner.Job, error) {
			var p slowParams
			if err := json.Unmarshal(spec.Params, &p); err != nil {
				return nil, err
			}
			return &runner.Job{
				Cells: len(spec.Dims[0].Values),
				Evaluate: func(ctx context.Context, env runner.JobEnv, cell int) ([]byte, error) {
					select {
					case <-ctx.Done():
						return nil, ctx.Err()
					case <-time.After(time.Duration(p.SleepMilli) * time.Millisecond):
					}
					return []byte(fmt.Sprintf(`{"cell":%d}`, cell)), nil
				},
			}, nil
		},
	})
}

// slowSpec is a job of `cells` slow cells sleeping sleepMilli each.
func slowSpec(t *testing.T, cells, sleepMilli int) runner.JobSpec {
	t.Helper()
	params, err := json.Marshal(slowParams{SleepMilli: sleepMilli})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]float64, cells)
	for i := range values {
		values[i] = 0.1 + 0.8*float64(i)/float64(cells)
	}
	spec := runner.JobSpec{
		Schema: runner.JobSpecSchemaVersion,
		Kind:   slowKindName,
		Base: runner.Key{
			Scheme: scheme.MTCD, Params: fluid.PaperParams,
			K: 5, P: 0.9, Lambda0: 1,
		},
		Dims:   []runner.Dim{{Name: "p", Values: values}},
		Seed:   3,
		Params: params,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// A deliberately slow worker holding one lease longer than the TTL is
// kept alive by TTL/2 renewals: the lease is never reaped, no thief ever
// steals a cell, and nothing is computed twice.
func TestLeaseRenewalKeepsSlowWorkerAlive(t *testing.T) {
	const ttl = 300 * time.Millisecond
	spec := slowSpec(t, 2, 450) // each cell outlasts the TTL half over
	reg := obs.New()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{
		LeaseTTL: ttl, LeaseCells: 2, Obs: reg,
	})

	ctx := context.Background()
	errs := make(chan error, 2)
	leased := make(chan struct{})
	var leasedOnce atomic.Bool
	go func() {
		errs <- Work(ctx, srv.URL, WorkerOptions{
			Name: "tortoise", Parallelism: 2, Obs: reg,
			OnLease: func(id string, cells []int) {
				if !leasedOnce.Swap(true) {
					close(leased)
				}
			},
		})
	}()
	// The thief only starts polling once the tortoise holds the whole
	// job; renewal means it never gets a cell.
	<-leased
	go func() {
		errs <- Work(ctx, srv.URL, WorkerOptions{Name: "thief", Parallelism: 4, Obs: reg})
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := coord.Payloads(ctx); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("fabric_leases_expired_total").Value(); n != 0 {
		t.Fatalf("%d leases expired despite renewal", n)
	}
	if n := reg.Counter("fabric_cells_duplicate_total").Value(); n != 0 {
		t.Fatalf("%d duplicate completions; a cell was computed twice", n)
	}
	if n := reg.Counter("fabric_leases_renewed_total").Value(); n == 0 {
		t.Fatal("no lease was ever renewed; the slow worker survived by luck")
	}
	if n := reg.Counter("fabric_worker_cells_total", obs.L("worker", "thief")).Value(); n != 0 {
		t.Fatalf("thief computed %d cells that renewal should have protected", n)
	}
}

// dropPath fails every request to one path with a transport error,
// passing everything else through.
type dropPath struct {
	path string
}

func (d *dropPath) RoundTrip(req *http.Request) (*http.Response, error) {
	if strings.HasSuffix(req.URL.Path, d.path) {
		return nil, fmt.Errorf("renewal suppressed")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// The contrast run: with renewals suppressed, the same slow lease is
// reaped at the TTL — proving the renewal path, not timing luck, is what
// kept the tortoise alive above.
func TestLeaseExpiresWithoutRenewal(t *testing.T) {
	const ttl = 300 * time.Millisecond
	spec := slowSpec(t, 2, 450)
	reg := obs.New()
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{
		LeaseTTL: ttl, LeaseCells: 2, Obs: reg,
	})
	err := Work(context.Background(), srv.URL, WorkerOptions{
		Name: "mute", Parallelism: 2, Obs: reg,
		Client: &http.Client{Transport: &dropPath{path: pathRenew}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Payloads(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("fabric_leases_expired_total").Value(); n == 0 {
		t.Fatal("lease survived without renewal; the renewal test proves nothing")
	}
}

// A renewal for an expired (or stolen) lease is refused with 409 — it
// cannot be revived once its cells may be in another worker's hands.
func TestRenewExpiredLeaseRefused(t *testing.T) {
	spec := testSpec(t)
	now := time.Unix(0, 0)
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, store, CoordinatorOptions{
		LeaseTTL: time.Second,
		Clock:    func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	l, _, _ := coord.Lease("w", 2)
	if l == nil {
		t.Fatal("no lease granted")
	}
	if err := coord.Renew("other", l.id); err == nil {
		t.Fatal("another worker renewed someone else's lease")
	}
	if err := coord.Renew("w", l.id); err != nil {
		t.Fatalf("live renewal refused: %v", err)
	}
	now = now.Add(2 * time.Second) // past the renewed TTL
	if err := coord.Renew("w", l.id); err == nil {
		t.Fatal("expired lease was revived by renewal")
	}
}

// swapHandler atomically redirects an httptest server between handlers —
// the same address serving a sequence of coordinators, like a restarted
// process behind one host:port.
type swapHandler struct {
	v atomic.Value // handlerBox, so differing concrete handler types coexist
}

type handlerBox struct{ h http.Handler }

func (s *swapHandler) Set(h http.Handler) { s.v.Store(handlerBox{h}) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

// A completion POSTed exactly as the coordinator restarts is never
// silently dropped: the in-flight request fails, the worker retries
// (through a lossy chaos transport for good measure), and the successor
// coordinator — same address, same checkpoint store — absorbs it.
func TestCoordinatorRestartAbsorbsInflightCompletions(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	dir := t.TempDir()
	// A chaos-dropped lease *grant* orphans its cells until the TTL reaps
	// them — keep the TTL short so that recovery is part of the test, not
	// a 30s stall.
	restartOpts := CoordinatorOptions{LeaseTTL: 500 * time.Millisecond}
	store1, err := diskcache.OpenCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	coord1, err := NewCoordinator(spec, store1, restartOpts)
	if err != nil {
		t.Fatal(err)
	}
	sh := &swapHandler{}
	var coord2 atomic.Pointer[Coordinator]
	var restartErr atomic.Value
	var tripped atomic.Bool
	gate := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathComplete && !tripped.Swap(true) {
			// The restart happens under this completion: the old
			// coordinator vanishes, a successor opens the same store, and
			// this request is answered with the 503 a dying process would
			// produce. The worker must retry it into the successor.
			store2, err := diskcache.OpenCheckpoint(dir)
			if err == nil {
				var c2 *Coordinator
				c2, err = NewCoordinator(spec, store2, restartOpts)
				if err == nil {
					coord2.Store(c2)
					sh.Set(c2.Handler())
				}
			}
			if err != nil {
				restartErr.Store(err)
			}
			http.Error(w, "coordinator restarting", http.StatusServiceUnavailable)
			return
		}
		sh.ServeHTTP(w, r)
	})
	sh.Set(coord1.Handler())
	srv := httptest.NewServer(gate)
	defer srv.Close()

	plan, err := chaos.NewPlan(chaos.Config{
		Seed: 17, DropProb: 0.1, DelayMax: 2 * time.Millisecond,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = Work(context.Background(), srv.URL, WorkerOptions{
		Name: "persistent", Parallelism: 2,
		Client:  &http.Client{Transport: plan.Transport("persistent", nil)},
		Retries: 8, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := restartErr.Load(); e != nil {
		t.Fatalf("restart failed: %v", e)
	}
	c2 := coord2.Load()
	if c2 == nil {
		t.Fatal("no completion ever hit the restart window")
	}
	got, err := result(context.Background(), c2)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
}

// A coordinator outage longer than the retry budget but shorter than
// MaxOutage parks the worker instead of killing it: the worker rides out
// the blackout, rejoins, and finishes the job — and the parked time is
// on the gauge.
func TestParkedWorkerRejoinsAfterBlackout(t *testing.T) {
	spec := testSpec(t)
	want := localCells(t, spec)
	reg := obs.New()
	coord, _ := newFabric(t, spec, t.TempDir(), CoordinatorOptions{Obs: reg})

	sh := &swapHandler{}
	live := coord.Handler()
	down := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "blackout", http.StatusServiceUnavailable)
	})
	sh.Set(live)
	outage := httptest.NewServer(sh)
	defer outage.Close()

	// Black the coordinator out after the first completed cell, for well
	// past the worker's entire retry budget.
	var once atomic.Bool
	err := Work(context.Background(), outage.URL, WorkerOptions{
		Name: "patient", Obs: reg,
		Retries: 1, Backoff: time.Millisecond,
		MaxOutage: 30 * time.Second,
		OnCell: func(cell int) {
			if !once.Swap(true) {
				sh.Set(down)
				time.AfterFunc(250*time.Millisecond, func() { sh.Set(live) })
			}
		},
	})
	if err != nil {
		t.Fatalf("worker died instead of parking: %v", err)
	}
	got, err := result(context.Background(), coord)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, got, want)
	if sec := reg.Gauge("fabric_worker_parked_seconds").Value(); sec <= 0 {
		t.Fatal("worker finished without ever parking; the blackout missed")
	}
}

// An outage outlasting MaxOutage still kills the worker — parking is a
// bounded grace, not an infinite hang.
func TestParkGivesUpPastMaxOutage(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "gone for good", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	start := time.Now()
	err := Work(context.Background(), srv.URL, WorkerOptions{
		Name: "abandoned", Retries: -1, Backoff: time.Millisecond,
		MaxOutage: 150 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "max outage") {
		t.Fatalf("Work() = %v, want a max-outage error", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("park took %s to give up on a 150ms MaxOutage", e)
	}
}

// A parked worker advertises its state: the telemetry envelope carries
// parked=true, and /v1/fleet classifies the worker as parked rather than
// healthy or stale.
func TestFleetShowsParkedWorker(t *testing.T) {
	spec := testSpec(t)
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(spec, store, CoordinatorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	env := telemetryEnvelope{
		Schema: telemetrySchemaVersion, Worker: "limbo", Seq: 1,
		Parked: true, ParkedSeconds: 2.5,
	}
	if err := coord.ingestTelemetry(env); err != nil {
		t.Fatal(err)
	}
	f := coord.Fleet()
	if f.Parked != 1 || len(f.Workers) != 1 {
		t.Fatalf("fleet = %+v, want one parked worker", f)
	}
	if w := f.Workers[0]; w.State != WorkerParked || w.ParkedSeconds != 2.5 {
		t.Fatalf("worker row = %+v, want state=parked parked_seconds=2.5", w)
	}
}

// WorkLoop survives transient probe failures: one blip between rounds no
// longer reads as "coordinator retired", only gonePolls consecutive
// failures do.
func TestWorkLoopToleratesTransientProbeFailures(t *testing.T) {
	spec := testSpec(t)
	coord, _ := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})
	live := coord.Handler()

	// The job endpoint fails twice in a row (under gonePolls = 3), then
	// recovers. Fetch 1 is the loop's first probe, fetch 2 is Work's own
	// spec download, so the blips land on the post-round probes 3 and 4.
	var probes atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == pathJob {
			if n := probes.Add(1); n == 3 || n == 4 {
				http.Error(w, "blip", http.StatusServiceUnavailable)
				return
			}
		}
		live.ServeHTTP(w, r)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- WorkLoop(ctx, srv.URL, WorkerOptions{
			Name: "loop", Retries: -1, Backoff: time.Millisecond,
		})
	}()
	// The loop must complete the job despite the blips, then keep polling
	// (not return nil) until cancelled.
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("WorkLoop ended early with %v; transient blips read as retirement", err)
	case <-time.After(200 * time.Millisecond):
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled WorkLoop returned %v", err)
	}
}

// Once the coordinator is down for gonePolls consecutive probes, the
// loop concludes the service retired and returns nil.
func TestWorkLoopEndsAfterSustainedProbeFailure(t *testing.T) {
	spec := testSpec(t)
	coord, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})
	if err := Work(context.Background(), srv.URL, WorkerOptions{Name: "pre"}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv.Close() // the coordinator retires for good
	done := make(chan error, 1)
	go func() {
		done <- WorkLoop(context.Background(), srv.URL, WorkerOptions{
			Name: "loop", Retries: -1, Backoff: time.Millisecond,
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("WorkLoop returned %v, want nil after sustained failure", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WorkLoop never concluded the coordinator retired")
	}
}

// Oversized bodies on the control endpoints are refused by the cap, not
// buffered.
func TestFabricBodyCaps(t *testing.T) {
	spec := testSpec(t)
	_, srv := newFabric(t, spec, t.TempDir(), CoordinatorOptions{})
	huge := strings.Repeat("x", maxControlBody+1)
	resp, err := http.Post(srv.URL+pathLease, "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized lease body got %d, want a 4xx rejection", resp.StatusCode)
	}
}

// A worker still polling the previous round's job when the next round's
// coordinator takes over the address must not be granted the new job's
// cells — it would compute them against the old spec, have every
// completion refused as foreign, and leave the cells leased until the TTL.
// Its lease request names the old job, the new coordinator answers 409,
// and the loop worker refetches and joins the new round.
func TestStaleWorkerDoesNotStealFromNextRound(t *testing.T) {
	spec1 := testSpec(t)
	spec2 := testSpec(t)
	spec2.Seed++
	reg := obs.New()
	coord1, _ := newFabric(t, spec1, t.TempDir(), CoordinatorOptions{LeaseCells: 64})
	coord2, _ := newFabric(t, spec2, t.TempDir(), CoordinatorOptions{Obs: reg})

	// Round one is entirely in someone else's hands, so the worker under
	// test idles in its empty-queue poll.
	if l, _, _ := coord1.Lease("holder", 0); l == nil || len(l.cells) != coord1.Status().Total {
		t.Fatalf("holder's lease = %+v, want every cell", l)
	}
	sh := &swapHandler{}
	sh.Set(coord1.Handler())
	idled := make(chan struct{})
	var once atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sh.ServeHTTP(w, r)
		if r.URL.Path == pathLease && !once.Swap(true) {
			close(idled)
		}
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	var leases atomic.Int32
	go func() {
		done <- WorkLoop(ctx, srv.URL, WorkerOptions{
			Name: "straggler", Backoff: time.Millisecond, Heartbeat: -1,
			OnLease: func(string, []int) { leases.Add(1) },
		})
	}()
	<-idled
	sh.Set(coord2.Handler())

	// The straggler's next poll is refused, it refetches, and finishes
	// round two by itself.
	wctx, wcancel := context.WithTimeout(ctx, 20*time.Second)
	defer wcancel()
	if err := coord2.Wait(wctx); err != nil {
		select {
		case werr := <-done:
			t.Fatalf("the stale worker exited with %v instead of joining the next round", werr)
		default:
			t.Fatalf("round two never finished: %v (status %+v)", err, coord2.Status())
		}
	}
	if n := reg.Counter("fabric_cells_foreign_total").Value(); n != 0 {
		t.Fatalf("%d completions computed against the old spec reached the new coordinator", n)
	}
	if n, granted := leases.Load(), reg.Counter("fabric_leases_granted_total").Value(); uint64(n) != granted {
		t.Fatalf("worker saw %d leases, round two granted %d: a grant went to a worker that could not use it", n, granted)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled WorkLoop returned %v", err)
	}
}
