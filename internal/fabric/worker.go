package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/rng"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// WorkerOptions tune one worker loop.
type WorkerOptions struct {
	// Name identifies the worker in leases and metrics (default
	// "worker-<pid>").
	Name string
	// Parallelism bounds how many cells of a lease are computed
	// concurrently (default 1). The lease size is the coordinator's to
	// choose (LeaseCells, TargetLeaseSeconds).
	Parallelism int
	// Client is the HTTP client (default http.DefaultClient).
	Client *http.Client
	// Retries is how many times a transport error, 5xx response or
	// undecodable response body is retried with exponential backoff
	// before the worker gives up (default 4; negative disables retries).
	// 4xx responses never retry — they mean this worker and the
	// coordinator disagree about the job.
	Retries int
	// Backoff is the initial retry delay (default 50ms), doubling per
	// attempt. Each sleep is jittered to a uniform draw in
	// [backoff/2, backoff) from a per-worker deterministic stream, so N
	// workers retrying a restarted coordinator fan out instead of
	// stampeding in lockstep.
	Backoff time.Duration
	// MaxOutage, when positive, turns an exhausted retry budget on a
	// retryable failure (transport error, 5xx, undecodable body — never a
	// 4xx) into a park instead of a worker death: the worker keeps
	// re-trying the request with capped jittered backoff for up to this
	// long, surfacing the state as fabric_worker_parked_seconds and a
	// "parked" row in /v1/fleet, and rejoins seamlessly when the
	// coordinator answers again. Zero (the default) keeps the fail-fast
	// behavior.
	MaxOutage time.Duration
	// Obs, when non-nil, receives the worker's fabric_worker_cells_total
	// counter plus the solve cache's counters, and its full snapshot is
	// shipped with every telemetry push so the coordinator can merge it
	// into the fleet /metrics view.
	Obs *obs.Registry
	// Heartbeat is how often the worker pushes a telemetry envelope —
	// heartbeat, registry snapshot and completed spans — to the
	// coordinator's /v1/telemetry endpoint (default 1s; negative
	// disables telemetry). Pushes are fire-and-forget: one attempt off
	// the work path, failures counted in
	// fabric_telemetry_push_errors_total and dropped, never retried and
	// never blocking a lease or completion.
	Heartbeat time.Duration
	// Spans, when non-nil, is drained into each telemetry push so the
	// coordinator can assemble one fleet-wide trace. Attach it to the
	// registry's span sink (obs.Tee with any local trace writer).
	Spans *obs.SpanCollector
	// Samples, when non-nil, is the worker's replica-sample store:
	// sim-replica cells whose samples are already stored are replayed
	// instead of simulated, and freshly simulated samples are persisted
	// for later runs. Fluid cells ignore it.
	Samples *diskcache.SampleStore
	// OnLease, when non-nil, observes every granted lease before any of
	// its cells is computed.
	OnLease func(id string, cells []int)
	// OnCell, when non-nil, observes every computed cell, on the goroutine
	// that computed it and before the lease's results are posted. At
	// Parallelism 1 the two hooks are therefore never concurrent.
	OnCell func(cell int)
}

// withDefaults fills in the zero-value defaults.
func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		o.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	if o.Client == nil {
		o.Client = http.DefaultClient
	}
	if o.Retries == 0 {
		o.Retries = 4
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.Heartbeat == 0 {
		o.Heartbeat = time.Second
	}
	return o
}

const (
	// backoffSalt seeds the per-worker jitter stream; a distinct constant
	// so the draw sequence is decoupled from every other RNG consumer.
	backoffSalt = 0x6a09e667f3bcc908
	// gonePolls is how many consecutive failed job probes WorkLoop
	// tolerates before concluding the coordinator has retired, so one
	// transient failure between rounds does not end the loop.
	gonePolls = 3
)

// newWorker builds the shared per-run worker state. The jitter stream is
// seeded from the worker's name, so a named worker's backoff schedule is
// reproducible run to run while distinct workers fan out.
func newWorker(opts WorkerOptions, baseURL string) *worker {
	h := fnv.New64a()
	h.Write([]byte(opts.Name))
	return &worker{
		opts:   opts,
		base:   strings.TrimSuffix(baseURL, "/"),
		jitter: rng.NewStream(backoffSalt, h.Sum64()),
	}
}

// jitterSleep sleeps a uniform draw in [d/2, d) — "equal jitter": enough
// spread to break retry lockstep, never less than half the intended
// backoff. Returns ctx.Err() if cancelled mid-sleep.
func (w *worker) jitterSleep(ctx context.Context, d time.Duration) error {
	w.jmu.Lock()
	f := w.jitter.Float64()
	w.jmu.Unlock()
	d = d/2 + time.Duration(f*float64(d/2))
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// Work runs one worker against the coordinator at baseURL until the job
// completes (returns nil), the context is cancelled (returns ctx.Err()),
// or a cell or protocol error is hit. The worker fetches the job spec and
// prepares it once, then loops: lease a batch of cells, compute each
// through the prepared job (runner.Job.EvaluateCell) with its pre-split
// random stream, and post the lease's results in one request, each as the
// same diskcache.Entry envelope the checkpoint store persists. A spec
// whose kind this build does not register is rejected up front — a worker
// never leases cells it cannot execute. A coordinator that answers a lease
// with 409 has moved on to another job: Work returns nil, as it does when
// the job completes, and WorkLoop fetches the next one. So does a lease
// that no retry gets a response to after the job has answered this worker
// (an idle hint or an accepted completion): the coordinator finished and
// retired while the worker polled. Without such an answer, or under
// MaxOutage, it is an error.
func Work(ctx context.Context, baseURL string, opts WorkerOptions) error {
	opts = opts.withDefaults()
	w := newWorker(opts, baseURL)
	// One epoch per run: a worker that restarts under the same name (a
	// new process, or the next WorkLoop round) resets seq to 1, and the
	// coordinator uses the newer epoch to accept it instead of dropping
	// its pushes until seq catches up to the previous run's.
	w.epoch = time.Now().UnixNano()
	w.cells = opts.Obs.Counter("fabric_worker_cells_total", obs.L("worker", opts.Name))
	w.failed = opts.Obs.Counter("fabric_completions_failed_total", obs.L("worker", opts.Name))
	w.pushErrs = opts.Obs.Counter("fabric_telemetry_push_errors_total", obs.L("worker", opts.Name))
	w.parkedG = opts.Obs.Gauge("fabric_worker_parked_seconds")

	// The job spec decode rides inside the retry loop: a corrupted or
	// truncated response body is network weather, exactly like a 5xx, not
	// a protocol disagreement.
	_, err := w.do(ctx, http.MethodGet, pathJob, nil, nil, func(data []byte) error {
		spec, perr := runner.ParseJobSpec(data)
		if perr == nil {
			w.fp = spec.Fingerprint()
			w.job, perr = spec.Prepare()
		}
		return perr
	})
	if err != nil {
		return err
	}
	w.env = runner.JobEnv{
		Cache:   runner.NewCache().WithObs(opts.Obs),
		Samples: opts.Samples,
		Obs:     opts.Obs,
	}

	if opts.Heartbeat > 0 {
		// Seed the rate window so even the first beat reports cells/sec.
		w.lastBeat = time.Now()
		hctx, hcancel := context.WithCancel(ctx)
		hdone := make(chan struct{})
		go func() {
			defer close(hdone)
			t := time.NewTicker(opts.Heartbeat)
			defer t.Stop()
			for {
				select {
				case <-hctx.Done():
					return
				case <-t.C:
					w.pushTelemetry(hctx)
				}
			}
		}()
		defer func() {
			hcancel()
			<-hdone
			// Final flush so the coordinator sees the worker's terminal
			// counters and remaining spans even when the work loop ends
			// between beats. Detached from ctx — a cancelled worker still
			// gets one bounded farewell push.
			fctx, fcancel := context.WithTimeout(context.Background(), opts.Heartbeat)
			w.pushTelemetry(fctx)
			fcancel()
		}()
	}

	leaseBody, _ := json.Marshal(leaseRequest{Worker: opts.Name, Fingerprint: w.fp})
	answered := false
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var resp leaseResponse
		_, err := w.do(ctx, http.MethodPost, pathLease, leaseBody, nil, func(data []byte) error {
			resp = leaseResponse{}
			if err := json.Unmarshal(data, &resp); err != nil {
				return fmt.Errorf("fabric: lease response: %w", err)
			}
			return nil
		})
		var gone unreachable
		if errors.Is(err, errConflict) || answered && errors.As(err, &gone) {
			return nil
		}
		if err != nil {
			return err
		}
		switch {
		case resp.Done:
			return nil
		case resp.Lease == nil:
			answered = true
			retry := time.Duration(resp.RetryMilli) * time.Millisecond
			if retry <= 0 {
				retry = 25 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(retry):
			}
		default:
			if opts.OnLease != nil {
				opts.OnLease(resp.Lease.ID, resp.Lease.Cells)
			}
			w.setLease(resp.Lease.ID, len(resp.Lease.Cells))
			// Renew at TTL/2 for as long as the lease is being worked, so
			// a slow-but-alive worker is never reaped mid-cell and its
			// work recomputed by a thief.
			rctx, rcancel := context.WithCancel(ctx)
			var rdone chan struct{}
			if ttl := time.Duration(resp.Lease.TTLMilli) * time.Millisecond; ttl > 0 {
				rdone = make(chan struct{})
				go func() {
					defer close(rdone)
					w.renewLease(rctx, resp.Lease.ID, ttl)
				}()
			}
			err := w.runLease(ctx, resp.Lease.Cells)
			rcancel()
			if rdone != nil {
				<-rdone
			}
			w.setLease("", 0)
			if err != nil {
				return err
			}
			answered = true
		}
	}
}

// renewLease POSTs a renewal every TTL/2 until ctx is cancelled or the
// coordinator says the lease is gone (409 — expired and possibly stolen;
// retrying cannot revive it, and idempotent completes make the race
// harmless). Renewals are best-effort single attempts: a dropped one
// just leaves the next tick to succeed, well inside the TTL.
func (w *worker) renewLease(ctx context.Context, leaseID string, ttl time.Duration) {
	body, _ := json.Marshal(renewRequest{Worker: w.opts.Name, Lease: leaseID, Fingerprint: w.fp})
	t := time.NewTicker(ttl / 2)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		rctx, cancel := context.WithTimeout(ctx, ttl/2)
		_, err, _ := w.attempt(rctx, http.MethodPost, pathRenew, body, nil, nil)
		cancel()
		if errors.Is(err, errConflict) {
			return
		}
	}
}

// WorkLoop serves a coordinator address that hands out a sequence of jobs
// over time — e.g. the growing rounds of a sequential-stopping sweep,
// where each round is a fresh coordinator (new replica count, new
// fingerprint) at the same address. It runs Work on the current job, then
// polls the job endpoint until a spec with a new fingerprint appears and
// works on that, and so on. It returns nil once the coordinator goes away
// (the serve process shut down after its last round), ctx.Err() on
// cancellation, or the first cell/protocol error.
func WorkLoop(ctx context.Context, baseURL string, opts WorkerOptions) error {
	opts = opts.withDefaults()
	poll := 2 * opts.Backoff
	last := ""
	probe := newWorker(opts, baseURL)
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Probe the job endpoint. A failed probe might mean the
		// coordinator retired — the normal end of service for a loop
		// worker — or might be one transient network blip between rounds,
		// so the loop only concludes "gone" after gonePolls consecutive
		// failures.
		var spec runner.JobSpec
		_, err := probe.do(ctx, http.MethodGet, pathJob, nil, nil, func(data []byte) error {
			var perr error
			spec, perr = runner.ParseJobSpec(data)
			return perr
		})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fails++
			if fails >= gonePolls {
				return nil
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
			continue
		}
		fails = 0
		if fp := spec.Fingerprint(); fp != last {
			if err := Work(ctx, baseURL, opts); err != nil {
				return err
			}
			last = fp
			continue
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(poll):
		}
	}
}

type worker struct {
	opts     WorkerOptions
	base     string
	job      *runner.Job
	fp       string
	env      runner.JobEnv
	cells    *obs.Counter
	failed   *obs.Counter
	pushErrs *obs.Counter
	parkedG  *obs.Gauge

	// jitter is the worker's deterministic backoff stream; jmu guards it
	// because parallel runCell goroutines retry concurrently.
	jmu    sync.Mutex
	jitter *rng.Source

	// Telemetry state, all guarded by tmu and touched only off the
	// completion hot path.
	tmu       sync.Mutex
	leaseID   string
	inflight  int
	epoch     int64
	seq       int64
	lastBeat  time.Time
	lastCells uint64
	done      uint64 // cells completed, independent of opts.Obs
	parked    int    // request paths currently riding out an outage
	parkedSec float64
}

// setParked tracks how many request paths are parked and accumulates
// parked wall-time for telemetry and the fabric_worker_parked_seconds
// gauge (created without a worker label — the coordinator-side snapshot
// merge adds worker=<id>).
func (w *worker) setParked(delta int, sec float64) {
	w.tmu.Lock()
	w.parked += delta
	w.parkedSec += sec
	total := w.parkedSec
	w.tmu.Unlock()
	w.parkedG.Set(total)
}

// setLease records the lease currently being worked for the heartbeat.
func (w *worker) setLease(id string, cells int) {
	w.tmu.Lock()
	w.leaseID, w.inflight = id, cells
	w.tmu.Unlock()
}

// pushTelemetry builds and fires one telemetry envelope: a single
// attempt bounded by the heartbeat interval, with failures counted and
// swallowed — telemetry must never back-pressure the work loop or fail
// the job.
func (w *worker) pushTelemetry(ctx context.Context) {
	now := time.Now()
	w.tmu.Lock()
	w.seq++
	env := telemetryEnvelope{
		Schema:        telemetrySchemaVersion,
		Fingerprint:   w.fp,
		Worker:        w.opts.Name,
		Pid:           os.Getpid(),
		Epoch:         w.epoch,
		Seq:           w.seq,
		IntervalMilli: w.opts.Heartbeat.Milliseconds(),
		CellsTotal:    w.done,
		LeaseID:       w.leaseID,
		InflightCells: w.inflight,
		Parked:        w.parked > 0,
		ParkedSeconds: w.parkedSec,
	}
	if !w.lastBeat.IsZero() {
		if dt := now.Sub(w.lastBeat).Seconds(); dt > 0 {
			env.CellsPerSec = float64(w.done-w.lastCells) / dt
		}
	}
	w.lastBeat, w.lastCells = now, w.done
	w.tmu.Unlock()
	if w.opts.Obs != nil {
		if data, err := obs.EncodeSnapshot(w.opts.Obs.Snapshot()); err == nil {
			env.Snapshot = data
		}
	}
	if w.opts.Spans != nil {
		if events := w.opts.Spans.Drain(); len(events) > 0 {
			env.Spans = toWireSpans(events)
		}
	}
	body, err := json.Marshal(env)
	if err != nil {
		w.pushErrs.Inc()
		return
	}
	pctx, cancel := context.WithTimeout(ctx, w.opts.Heartbeat)
	defer cancel()
	if _, err, _ := w.attempt(pctx, http.MethodPost, pathTelemetry, body, nil, nil); err != nil {
		w.pushErrs.Inc()
	}
}

// runLease computes every cell of one lease, at most Parallelism at a
// time, and posts what it computed as one completion body: the Entry
// envelopes one per line, their cell seconds listed in the same order in
// X-Fabric-Cell-Seconds. The first failure cancels the cells not yet
// started; those already computed are still posted, so an error costs only
// the work it interrupted.
func (w *worker) runLease(ctx context.Context, cells []int) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	queue := make(chan int, len(cells))
	for _, cell := range cells {
		queue <- cell
	}
	close(queue)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex // guards body, seconds and firstErr
		body     bytes.Buffer
		seconds  []string
		firstErr error
	)
	for p := 0; p < min(w.opts.Parallelism, len(cells)); p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for cell := range queue {
				if cctx.Err() != nil {
					return
				}
				entry, sec, err := w.runCell(cctx, cell)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					cancel()
				} else {
					body.Write(entry)
					body.WriteByte('\n')
					seconds = append(seconds, sec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A cancelled worker is shutdown, not loss: nothing can be posted.
		return err
	}
	if err := w.postCells(ctx, body.Bytes(), seconds); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// runCell computes one cell through the prepared job and returns its
// encoded Entry envelope and how many seconds that took.
func (w *worker) runCell(ctx context.Context, cell int) (entry []byte, seconds string, err error) {
	start := time.Now()
	// Remote cells bypass the runner pool's span site, so span them here;
	// inert (no clock read) unless a sink is attached.
	sp := w.opts.Obs.StartSpan("cell", obs.L("cell", strconv.Itoa(cell)))
	payload, err := w.job.EvaluateCell(ctx, w.env, cell)
	sp.End()
	if err != nil {
		return nil, "", err
	}
	entry, err = diskcache.Entry{
		Schema: diskcache.CheckpointSchemaVersion,
		Key:    w.fp, Cell: cell, Payload: payload,
	}.Encode()
	if err != nil {
		return nil, "", err
	}
	seconds = strconv.FormatFloat(time.Since(start).Seconds(), 'g', -1, 64)
	if w.opts.OnCell != nil {
		w.opts.OnCell(cell)
	}
	return entry, seconds, nil
}

// postCells posts one lease's computed cells; seconds has one element per
// entry in body.
func (w *worker) postCells(ctx context.Context, body []byte, seconds []string) error {
	n := uint64(len(seconds))
	if n == 0 {
		return nil
	}
	hdr := http.Header{}
	hdr.Set(headerWorker, w.opts.Name)
	hdr.Set(headerCellSeconds, strings.Join(seconds, ","))
	if _, err := w.do(ctx, http.MethodPost, pathComplete, body, hdr, nil); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// The cells were computed but their results never reached the
		// coordinator: that is lost work (someone else will recompute
		// them), not a silent skip — count it and surface the post error.
		w.failed.Add(n)
		return fmt.Errorf("fabric: completion lost after retries (%d cells): %w", n, err)
	}
	w.cells.Add(n)
	w.tmu.Lock()
	w.done += n
	w.inflight = max(w.inflight-len(seconds), 0)
	w.tmu.Unlock()
	return nil
}

// do issues one request, retrying transport errors, 5xx responses and
// decode failures with jittered exponential backoff; 4xx responses fail
// immediately. decode, when non-nil, validates (and captures) the
// response body inside the retry loop, so a corrupted body is retried
// like any other transient fault instead of killing the worker. When the
// retry budget runs out on a retryable failure and MaxOutage is set, the
// request parks — capped jittered backoff for up to MaxOutage — instead
// of failing. A request that never got a response on any attempt fails
// as unreachable.
func (w *worker) do(ctx context.Context, method, path string, body []byte, hdr http.Header, decode func([]byte) error) ([]byte, error) {
	backoff := w.opts.Backoff
	var lastErr error
	reached := false
	for attempt := 0; attempt <= w.opts.Retries; attempt++ {
		if attempt > 0 {
			if err := w.jitterSleep(ctx, backoff); err != nil {
				return nil, err
			}
			backoff *= 2
		}
		data, err, retryable := w.attempt(ctx, method, path, body, hdr, decode)
		if err == nil {
			return data, nil
		}
		if !retryable {
			return nil, err
		}
		var noResponse *url.Error
		reached = reached || !errors.As(err, &noResponse)
		lastErr = err
	}
	switch {
	case w.opts.MaxOutage > 0:
		return w.park(ctx, method, path, body, hdr, decode, lastErr)
	case !reached:
		return nil, unreachable{lastErr}
	}
	return nil, lastErr
}

// unreachable marks a request whose every attempt failed before any
// response arrived: the connection was refused, reset or timed out.
type unreachable struct{ error }

func (u unreachable) Unwrap() error { return u.error }

// park rides out a coordinator outage: keep retrying with backoff capped
// at parkBackoffCap until the request succeeds, fails terminally, or
// MaxOutage elapses. The worker advertises the state through its parked
// telemetry fields and the fabric_worker_parked_seconds gauge.
func (w *worker) park(ctx context.Context, method, path string, body []byte, hdr http.Header, decode func([]byte) error, lastErr error) ([]byte, error) {
	const parkBackoffCap = 2 * time.Second
	ceil := parkBackoffCap
	if q := w.opts.MaxOutage / 4; q > 0 && ceil > q {
		ceil = q
	}
	if ceil < w.opts.Backoff {
		ceil = w.opts.Backoff
	}
	start := time.Now()
	w.setParked(+1, 0)
	last := start
	tick := func() {
		now := time.Now()
		w.setParked(0, now.Sub(last).Seconds())
		last = now
	}
	defer func() {
		tick()
		w.setParked(-1, 0)
	}()
	for {
		if time.Since(start) >= w.opts.MaxOutage {
			return nil, fmt.Errorf("fabric: parked %s past max outage %s: %w",
				time.Since(start).Round(time.Millisecond), w.opts.MaxOutage, lastErr)
		}
		if err := w.jitterSleep(ctx, ceil); err != nil {
			return nil, err
		}
		tick()
		data, err, retryable := w.attempt(ctx, method, path, body, hdr, decode)
		if err == nil {
			return data, nil
		}
		if !retryable {
			return nil, err
		}
		lastErr = err
	}
}

// attempt issues a single request. retryable reports whether the failure
// is transient network weather (transport error, 5xx, short read,
// undecodable body) as opposed to terminal (4xx: a protocol
// disagreement; or context cancellation).
func (w *worker) attempt(ctx context.Context, method, path string, body []byte, hdr http.Header, decode func([]byte) error) (data []byte, err error, retryable bool) {
	req, err := http.NewRequestWithContext(ctx, method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err, false
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err(), false
		}
		return nil, err, true
	}
	data, rerr := readAll(resp)
	switch {
	case rerr != nil:
		return nil, rerr, true
	case resp.StatusCode < 300:
		if decode != nil {
			if derr := decode(data); derr != nil {
				return nil, derr, true
			}
		}
		return data, nil, false
	case resp.StatusCode >= 500:
		return nil, fmt.Errorf("fabric: %s %s: %s: %s",
			method, path, resp.Status, strings.TrimSpace(string(data))), true
	case resp.StatusCode == http.StatusConflict:
		return nil, fmt.Errorf("fabric: %s %s: %w: %s",
			method, path, errConflict, strings.TrimSpace(string(data))), false
	default:
		return nil, fmt.Errorf("fabric: %s %s: %s: %s",
			method, path, resp.Status, strings.TrimSpace(string(data))), false
	}
}

// errConflict marks a 409: the coordinator and this worker disagree about
// which job (or whose lease) the request belongs to.
var errConflict = errors.New("409 Conflict")

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
