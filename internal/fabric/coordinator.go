// Package fabric distributes one runner.JobSpec across many processes: a
// coordinator partitions the job's grid into short-lived cell leases, and
// any number of workers pull leases over HTTP, compute cells, and post the
// results back. The protocol is deliberately small — four endpoints, JSON
// bodies, no worker registration — and leans entirely on the job model's
// determinism guarantees:
//
//   - The job travels as runner.JobSpec's canonical JSON; its Fingerprint
//     is the run identity on the wire and on disk.
//   - A completed cell travels as the diskcache.Entry envelope and is kept
//     once, the result and the resume state: as its replica sample when it
//     has one and the coordinator a sample store, else as that checkpoint.
//   - A cell is a pure function of the spec and its index
//     (runner.Job.Evaluate; a replica's seed derives from the spec), so a
//     grid computed by one process or twenty, in any interleaving, is
//     byte-identical.
//
// Leases expire: a worker that dies mid-lease simply stops renewing, and
// its cells are re-issued to whoever asks next (work stealing). Because
// completions are idempotent — keyed by (fingerprint, cell), duplicates
// acknowledged and dropped — a slow worker racing its thief is harmless.
// A duplicate is also a free replication: its payload is compared with the
// kept copy, and a mismatch fails the job's Payloads.
//
// A Campaign is the serving shell around coordinators: one address, one
// checkpoint and sample store, local workers, progress and fleet output,
// and one Serve per job — a single sweep, or each round of a sequential-
// stopping run. The package knows job kinds only through runner.JobSpec.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// Wire paths and headers.
const (
	pathJob       = "/v1/job"
	pathLease     = "/v1/lease"
	pathRenew     = "/v1/renew"
	pathComplete  = "/v1/complete"
	pathStatus    = "/v1/status"
	pathTelemetry = "/v1/telemetry"
	pathFleet     = "/v1/fleet"
	pathMetrics   = "/metrics"

	headerWorker      = "X-Fabric-Worker"
	headerCellSeconds = "X-Fabric-Cell-Seconds"

	// maxTelemetryBody bounds a POST /v1/telemetry body. A real envelope
	// (snapshot + span batch) is tens of kilobytes; 8 MiB leaves room for
	// very large fleets' registries without letting one client make the
	// coordinator buffer arbitrary data.
	maxTelemetryBody = 8 << 20
	// maxCompleteBody bounds a POST /v1/complete body: the Entry envelopes
	// of one lease's cells, concatenated. Sim-replica event samples run to
	// a few megabytes at long horizons; 32 MiB is far above any real lease
	// yet still a cap.
	maxCompleteBody = 32 << 20
	// minIdleHint is the shortest retry hint an empty-queue lease carries.
	minIdleHint = 25 * time.Millisecond
	// maxControlBody bounds the small control bodies (/v1/lease,
	// /v1/renew): a worker name and a few integers.
	maxControlBody = 1 << 16
	// stragglerFactor flags a worker as a straggler on /v1/fleet when its
	// median cell seconds exceed this multiple of the fleet median.
	stragglerFactor = 2
	// requestTimeout bounds how long any one fabric request may hold a
	// handler goroutine before being answered with 503. Every endpoint is
	// a quick lock-compute-respond, so a request this old is a stuck
	// client or a lost connection, not legitimate work.
	requestTimeout = 30 * time.Second
)

// CoordinatorOptions tune lease granularity and expiry.
type CoordinatorOptions struct {
	// LeaseCells is the maximum cells granted per lease (default 8). A
	// worker never receives more than it asks for.
	LeaseCells int
	// LeaseTTL is how long a lease stays exclusive (default 30s). A lease
	// older than this is reaped and its unfinished cells re-issued.
	LeaseTTL time.Duration
	// TargetLeaseSeconds, when positive, sizes each worker's lease from
	// its observed mean cell duration so a lease takes roughly this long
	// of wall-time: slow workers get smaller batches (down to 1 cell) and
	// forfeit less on a mid-lease death, fast workers get bigger ones (up
	// to LeaseCells) and spend less time on protocol round trips. A worker
	// with no observations yet falls back to the fixed LeaseCells batch.
	TargetLeaseSeconds float64
	// Samples, when non-nil, keeps the cells of kinds that declare a
	// SampleRef instead of the checkpoint store: cells already stored are
	// marked done at startup without ever being leased, so a re-run with a
	// larger replica count only distributes the new replicas. A sample
	// pruned before Payloads reads it is a missing cell; on resume it runs
	// again.
	Samples *diskcache.SampleStore
	// Obs, when non-nil, receives the coordinator's counters
	// (fabric_leases_*, fabric_cells_*) and the per-worker
	// fabric_cell_seconds latency histograms. The fleet telemetry table
	// works even when Obs is nil: the coordinator then keeps a private
	// registry so /metrics and /v1/fleet still render.
	Obs *obs.Registry
	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time
}

type cellState uint8

const (
	cellIdle cellState = iota
	cellLeased
	cellDone
)

type lease struct {
	id      string
	worker  string
	cells   []int
	expires time.Time
}

// pace accumulates observed cell durations — one worker's for the adaptive
// lease policy, the whole fleet's for the idle hint — next to the
// fabric_cell_seconds series they are also recorded in.
type pace struct {
	sum  float64
	n    int
	hist *obs.Histogram
}

func (p *pace) observe(sec float64) {
	p.sum += sec
	p.n++
	p.hist.Observe(sec)
}

// Coordinator owns the authoritative state of one distributed job: which
// cells are idle, leased or done. Every completed cell is kept on disk (see
// stored), which makes the coordinator itself restartable — reopening the
// same stores resumes with every previously completed cell already marked
// done.
//
// mu guards the cell, lease and pace state and nothing else: no store is
// read or written, and nothing is encoded, while it is held.
type Coordinator struct {
	spec     runner.JobSpec
	specJSON []byte
	fp       string
	job      *runner.Job
	store    *diskcache.CheckpointStore
	opts     CoordinatorOptions

	mu           sync.Mutex
	state        []cellState
	leased, done int // how many cells are cellLeased, cellDone
	// pending[head:] is the FIFO queue of idle cells. A reaped cell that
	// completes while queued stays in the slice and is skipped when popped.
	pending []int
	head    int
	// writing holds a channel per cell whose completion is between claim
	// and commit, closed at the commit: a second completion of the cell
	// waits on it instead of writing the stores again.
	writing   map[int]chan struct{}
	leases    map[string]*lease
	nextLease int
	doneCh    chan struct{}
	pace      map[string]*pace
	fleet     pace
	// divergent is the lowest cell whose audit found two different
	// payloads, or -1.
	divergent int

	obsGranted   *obs.Counter
	obsExpired   *obs.Counter
	obsCompleted *obs.Counter
	obsDuplicate *obs.Counter
	obsDivergent *obs.Counter
	obsResumed   *obs.Counter
	obsForeign   *obs.Counter
	obsRenewed   *obs.Counter

	// treg is the telemetry registry: opts.Obs when set, otherwise a
	// private registry, so fleet metrics exist even with observability
	// "off". Guarded by tmu, the telemetry table is deliberately separate
	// from mu — a slow /metrics render never contends with the lease path.
	treg                 *obs.Registry
	tmu                  sync.Mutex
	telemetry            map[string]*workerTelemetry
	obsTelemetry         *obs.Counter
	obsTelemetryBad      *obs.Counter
	obsTelemetrySpans    *obs.Counter
	obsTelemetryUnmerged *obs.Counter
}

// NewCoordinator validates the spec and prepares the job for distribution.
// The store is required: it keeps the cells opts.Samples does not. Cells
// already kept in either store are marked done immediately (counted as
// fabric_cells_resumed_total).
func NewCoordinator(spec runner.JobSpec, store *diskcache.CheckpointStore, opts CoordinatorOptions) (*Coordinator, error) {
	if store == nil {
		return nil, fmt.Errorf("fabric: nil checkpoint store")
	}
	job, err := spec.Prepare()
	if err != nil {
		return nil, err
	}
	spec = job.Spec()
	// Prepare has validated the spec, so this is its canonical encoding.
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if opts.LeaseCells <= 0 {
		opts.LeaseCells = 8
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	treg := opts.Obs
	if treg == nil {
		treg = obs.New()
	}
	c := &Coordinator{
		spec: spec, specJSON: specJSON, fp: spec.Fingerprint(), job: job,
		store: store, opts: opts,
		state:     make([]cellState, job.Cells),
		writing:   map[int]chan struct{}{},
		leases:    map[string]*lease{},
		doneCh:    make(chan struct{}),
		pace:      map[string]*pace{},
		fleet:     pace{hist: treg.Histogram("fabric_cell_seconds", obs.LatencyBuckets)},
		divergent: -1,

		obsGranted:   treg.Counter("fabric_leases_granted_total"),
		obsExpired:   treg.Counter("fabric_leases_expired_total"),
		obsCompleted: treg.Counter("fabric_cells_completed_total"),
		obsDuplicate: treg.Counter("fabric_cells_duplicate_total"),
		obsDivergent: treg.Counter("fabric_cells_divergent_total"),
		obsResumed:   treg.Counter("fabric_cells_resumed_total"),
		obsForeign:   treg.Counter("fabric_cells_foreign_total"),
		obsRenewed:   treg.Counter("fabric_leases_renewed_total"),

		treg:                 treg,
		telemetry:            map[string]*workerTelemetry{},
		obsTelemetry:         treg.Counter("fabric_telemetry_pushes_total"),
		obsTelemetryBad:      treg.Counter("fabric_telemetry_bad_total"),
		obsTelemetrySpans:    treg.Counter("fabric_telemetry_spans_total"),
		obsTelemetryUnmerged: treg.Counter("fabric_telemetry_unmerged_total"),
	}
	for i := range c.state {
		if _, ok := c.stored(i); ok {
			c.state[i] = cellDone
			c.done++
			c.obsResumed.Inc()
			continue
		}
		c.pending = append(c.pending, i)
	}
	if c.done == len(c.state) {
		close(c.doneCh)
	}
	return c, nil
}

// sampleRef is cell's identity in the replica-sample store; ok is false
// when the coordinator has no sample store or the kind no sample identity.
func (c *Coordinator) sampleRef(cell int) (key string, seed uint64, ok bool) {
	if c.opts.Samples == nil || c.job.SampleRef == nil {
		return "", 0, false
	}
	return c.job.SampleRef(cell)
}

// stored reads cell's kept copy: its replica sample when it has one, else
// its checkpoint, which also serves entries written before samples were
// kept alone.
func (c *Coordinator) stored(cell int) ([]byte, bool) {
	if key, seed, ok := c.sampleRef(cell); ok {
		if payload, hit := c.opts.Samples.Get(key, seed); hit {
			return payload, true
		}
	}
	return c.store.Get(c.fp, cell)
}

// reapLocked re-queues the unfinished cells of every expired lease.
func (c *Coordinator) reapLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		for _, cell := range l.cells {
			if c.state[cell] == cellLeased {
				c.state[cell] = cellIdle
				c.leased--
				c.pending = append(c.pending, cell)
			}
		}
		delete(c.leases, id)
		c.obsExpired.Inc()
	}
}

// Lease grants up to max idle cells to worker. It returns exactly one of:
// a grant, a positive retry hint (cells are in flight elsewhere — ask
// again after this long), or done=true (every cell is complete).
func (c *Coordinator) Lease(worker string, max int) (grant *lease, retry time.Duration, done bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.reapLocked(now)
	if c.done == len(c.state) {
		return nil, 0, true
	}
	n := c.batchSizeLocked(worker)
	if max > 0 && max < n {
		n = max
	}
	cells := make([]int, 0, n)
	for ; len(cells) < n && c.head < len(c.pending); c.head++ {
		if cell := c.pending[c.head]; c.state[cell] == cellIdle {
			c.state[cell] = cellLeased
			cells = append(cells, cell)
		}
	}
	if c.head == len(c.pending) {
		c.pending, c.head = c.pending[:0], 0
	}
	if len(cells) == 0 {
		return nil, c.idleHintLocked(), false
	}
	c.leased += len(cells)
	c.nextLease++
	l := &lease{
		id: fmt.Sprintf("lease-%d", c.nextLease), worker: worker,
		cells: cells, expires: now.Add(c.opts.LeaseTTL),
	}
	c.leases[l.id] = l
	c.obsGranted.Inc()
	return l, 0, false
}

// idleHintLocked is how long a worker that found the queue empty should
// wait before asking again: about as long as the cells in flight need at
// the fleet's observed mean pace — the soonest the answer can change,
// short of a lease expiring — kept within [minIdleHint, LeaseTTL/4].
func (c *Coordinator) idleHintLocked() time.Duration {
	sec := c.fleet.sum / float64(max(c.fleet.n, 1)) * float64(c.leased)
	sec = min(sec, (c.opts.LeaseTTL / 4).Seconds())
	return max(time.Duration(sec*float64(time.Second)), minIdleHint)
}

// Renew extends a live lease by a fresh TTL. A slow-but-alive worker
// renews at TTL/2 so a long cell is never reaped out from under it; a
// lease that has already expired (or was never granted) cannot be
// revived — its cells may be in another worker's hands, so the renewing
// worker is told no and falls back on idempotent completion.
func (c *Coordinator) Renew(worker, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Clock()
	c.reapLocked(now)
	l, ok := c.leases[leaseID]
	if !ok {
		return fmt.Errorf("fabric: lease %q expired or unknown", leaseID)
	}
	if l.worker != worker {
		return fmt.Errorf("fabric: lease %q belongs to %q", leaseID, l.worker)
	}
	l.expires = now.Add(c.opts.LeaseTTL)
	c.obsRenewed.Inc()
	return nil
}

// batchSizeLocked returns the lease size for worker: LeaseCells under the
// fixed policy, or TargetLeaseSeconds divided by the worker's observed
// mean cell duration (clamped to [1, LeaseCells]) once the adaptive
// policy has at least one observation for it.
func (c *Coordinator) batchSizeLocked(worker string) int {
	limit := c.opts.LeaseCells
	if c.opts.TargetLeaseSeconds <= 0 {
		return limit
	}
	p, ok := c.pace[worker]
	if !ok || p.n == 0 || p.sum <= 0 {
		return limit
	}
	mean := p.sum / float64(p.n)
	batch := int(c.opts.TargetLeaseSeconds / mean)
	if batch < 1 {
		return 1
	}
	if batch > limit {
		return limit
	}
	return batch
}

// ObserveCellSeconds feeds the adaptive lease policy, the idle hint and
// the straggler histograms one observed cell duration for worker: the
// per-worker fabric_cell_seconds{worker=...} series and the unlabeled
// fleet series whose medians /v1/fleet compares. The HTTP handler folds
// the same observation into the commit of every non-duplicate completion
// that carries the X-Fabric-Cell-Seconds header; non-positive and
// non-finite observations are ignored.
func (c *Coordinator) ObserveCellSeconds(worker string, sec float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(worker, sec)
}

func (c *Coordinator) observeLocked(worker string, sec float64) {
	if worker == "" || sec <= 0 || math.IsNaN(sec) || math.IsInf(sec, 0) {
		return
	}
	p := c.pace[worker]
	if p == nil {
		p = &pace{hist: c.treg.Histogram("fabric_cell_seconds", obs.LatencyBuckets, obs.L("worker", worker))}
		c.pace[worker] = p
	}
	p.observe(sec)
	c.fleet.observe(sec)
}

// Complete records one finished cell. The entry must carry the current
// checkpoint schema and this job's fingerprint as its key — anything else
// is rejected before it can touch the store. Completions are accepted
// regardless of lease state (a worker outliving its stolen lease still
// contributes), and repeats are acknowledged as duplicates rather than
// errors, once audited against the kept copy.
func (c *Coordinator) Complete(e diskcache.Entry) (duplicate bool, err error) {
	return c.complete(e, "", 0)
}

// complete is Complete plus the worker's observed cell seconds, folded
// into the commit. It runs claim → persist → commit: only the claim and
// the commit take c.mu, so completions of different cells write in
// parallel and a slow disk never stalls a lease, a renewal or a status.
func (c *Coordinator) complete(e diskcache.Entry, worker string, sec float64) (duplicate bool, err error) {
	if e.Schema != diskcache.CheckpointSchemaVersion {
		return false, fmt.Errorf("fabric: entry schema %d, this coordinator speaks %d",
			e.Schema, diskcache.CheckpointSchemaVersion)
	}
	if e.Key != c.fp {
		c.obsForeign.Inc()
		return false, fmt.Errorf("fabric: completion for a different job")
	}
	if e.Cell < 0 || e.Cell >= len(c.state) {
		return false, fmt.Errorf("fabric: cell %d outside grid of %d", e.Cell, len(c.state))
	}

	// Claim. A cell someone else is writing is answered by that write's
	// outcome: a duplicate if it commits, this completion's turn if not.
	c.mu.Lock()
	for c.state[e.Cell] != cellDone && c.writing[e.Cell] != nil {
		first := c.writing[e.Cell]
		c.mu.Unlock()
		<-first
		c.mu.Lock()
	}
	if c.state[e.Cell] == cellDone {
		c.mu.Unlock()
		c.obsDuplicate.Inc()
		if kept, ok := c.stored(e.Cell); ok && !bytes.Equal(kept, e.Payload) {
			c.diverge(e.Cell)
		}
		return true, nil
	}
	claim := make(chan struct{})
	c.writing[e.Cell] = claim
	c.mu.Unlock()

	err = c.persist(e)

	c.mu.Lock()
	delete(c.writing, e.Cell)
	if err == nil {
		// A cell reaped back into the queue stays there; Lease skips it.
		if c.state[e.Cell] == cellLeased {
			c.leased--
		}
		c.state[e.Cell] = cellDone
		c.done++
		c.obsCompleted.Inc()
		c.observeLocked(worker, sec)
		if c.done == len(c.state) {
			close(c.doneCh)
		}
	}
	c.mu.Unlock()
	close(claim)
	return false, err
}

// persist keeps a claimed cell: as its replica sample when it has one, so
// a later run over the same configurations — even a different grid or
// spec — finds it without redistributing it, else as its checkpoint. A
// worker sharing the sample store has already stored the same bytes; they
// are not written twice. Different stored bytes are a divergence.
func (c *Coordinator) persist(e diskcache.Entry) error {
	key, seed, ok := c.sampleRef(e.Cell)
	if !ok {
		return c.store.PutEntry(e)
	}
	if kept, hit := c.opts.Samples.Get(key, seed); hit {
		if bytes.Equal(kept, e.Payload) {
			return nil
		}
		c.diverge(e.Cell)
	}
	return c.opts.Samples.Put(key, seed, e.Payload)
}

// diverge records that cell was completed with two different payloads.
// A cell is a pure function of (spec, cell), so one of them is wrong.
func (c *Coordinator) diverge(cell int) {
	c.obsDivergent.Inc()
	c.mu.Lock()
	if c.divergent < 0 || cell < c.divergent {
		c.divergent = cell
	}
	c.mu.Unlock()
}

// Status is a point-in-time summary of the job's progress.
type Status struct {
	Fingerprint string `json:"fingerprint"`
	Total       int    `json:"total"`
	Done        int    `json:"done"`
	Leased      int    `json:"leased"`
	Idle        int    `json:"idle"`
	Leases      int    `json:"leases"`
}

// Status reaps expired leases and reports progress.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reapLocked(c.opts.Clock())
	return Status{
		Fingerprint: c.fp, Total: len(c.state), Done: c.done,
		Leased: c.leased, Idle: len(c.state) - c.done - c.leased, Leases: len(c.leases),
	}
}

// Done returns a channel closed once every cell is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Wait blocks until the job completes or ctx is cancelled.
func (c *Coordinator) Wait(ctx context.Context) error {
	select {
	case <-c.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Payloads waits for completion and returns every cell's raw payload
// bytes in cell order — the one result path for every kind (sim.ReduceJob
// and experiments.SweepSpec.Serve decode it). It fails if any cell was
// completed with two different payloads. On success the job's checkpoints
// are cleared; replica samples stay.
func (c *Coordinator) Payloads(ctx context.Context) ([][]byte, error) {
	if err := c.Wait(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	divergent := c.divergent
	c.mu.Unlock()
	if divergent >= 0 {
		return nil, fmt.Errorf("fabric: cell %d was completed with two different payloads", divergent)
	}
	out := make([][]byte, len(c.state))
	for i := range out {
		payload, ok := c.stored(i)
		if !ok {
			return nil, fmt.Errorf("fabric: cell %d missing from the stores", i)
		}
		out[i] = payload
	}
	_ = c.store.Clear(c.fp)
	return out, nil
}

// Wire bodies.
type leaseRequest struct {
	Worker string `json:"worker"`
	// Max, when positive, caps the grant below the coordinator's own batch.
	Max int `json:"max,omitempty"`
	// Fingerprint is the job the worker believes it is leasing from.
	Fingerprint string `json:"fingerprint"`
}

type leaseGrant struct {
	ID       string `json:"id"`
	Cells    []int  `json:"cells"`
	TTLMilli int64  `json:"ttl_ms"`
}

type leaseResponse struct {
	Done       bool        `json:"done,omitempty"`
	RetryMilli int64       `json:"retry_ms,omitempty"`
	Lease      *leaseGrant `json:"lease,omitempty"`
}

type renewRequest struct {
	Worker      string `json:"worker"`
	Lease       string `json:"lease"`
	Fingerprint string `json:"fingerprint"`
}

// Handler returns the coordinator's HTTP surface:
//
//	GET  /v1/job      → the job's canonical JSON (what workers execute)
//	POST /v1/lease    → {"worker","fingerprint"} → grant | retry hint | done | 409 (another job)
//	POST /v1/renew    → {"worker","lease","fingerprint"} → ok | 409 (expired/stolen/another job)
//	POST /v1/complete → one or more concatenated diskcache.Entry envelopes; idempotent
//	GET  /v1/status   → progress summary
//
// Lease and renew requests name the job by fingerprint, as completions
// always have: behind an address that serves a sequence of coordinators, a
// worker still holding the previous job is told so (409) instead of being
// granted cells it would compute against the wrong spec.
//
// Every body-carrying endpoint is capped (maxControlBody for the small
// control messages, maxCompleteBody for cell payloads, maxTelemetryBody
// for telemetry), and the whole surface sits behind requestTimeout — a
// hung client gets 503, never a handler goroutine forever.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+pathJob, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(c.specJSON)
	})
	mux.HandleFunc("POST "+pathLease, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxControlBody)
		var req leaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "fabric: bad lease request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.Fingerprint != c.fp {
			http.Error(w, errOtherJob, http.StatusConflict)
			return
		}
		l, retry, done := c.Lease(req.Worker, req.Max)
		resp := leaseResponse{Done: done, RetryMilli: retry.Milliseconds()}
		if l != nil {
			resp.Lease = &leaseGrant{
				ID: l.id, Cells: l.cells, TTLMilli: c.opts.LeaseTTL.Milliseconds(),
			}
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("POST "+pathRenew, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxControlBody)
		var req renewRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, "fabric: bad renew request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if req.Fingerprint != c.fp {
			http.Error(w, errOtherJob, http.StatusConflict)
			return
		}
		if err := c.Renew(req.Worker, req.Lease); err != nil {
			// 409, not 5xx: the lease is gone for good and retrying the
			// renewal cannot bring it back — the worker should stop
			// renewing, finish its cells, and rely on idempotent completes.
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST "+pathComplete, func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, maxCompleteBody)
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "fabric: "+err.Error(), http.StatusBadRequest)
			return
		}
		// The body is a lease's worth of Entry envelopes back to back, one
		// in the simplest case; X-Fabric-Cell-Seconds lists their cell
		// seconds in the same order. Each entry is ingested on its own,
		// idempotently: the first bad one fails the request, the ones ahead
		// of it are already committed, and a retry sees those as duplicates.
		worker := r.Header.Get(headerWorker)
		seconds := strings.Split(r.Header.Get(headerCellSeconds), ",")
		dec := json.NewDecoder(bytes.NewReader(data))
		entries, duplicates := 0, 0
		for ; ; entries++ {
			var raw json.RawMessage
			if err := dec.Decode(&raw); err == io.EOF && entries > 0 {
				break
			} else if err != nil {
				http.Error(w, fmt.Sprintf("fabric: completion entry %d: %v", entries, err), http.StatusBadRequest)
				return
			}
			e, err := diskcache.DecodeEntry(raw)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			var sec float64
			if entries < len(seconds) {
				sec, _ = strconv.ParseFloat(strings.TrimSpace(seconds[entries]), 64)
			}
			dup, err := c.complete(e, worker, sec)
			if err != nil {
				status := http.StatusBadRequest
				if e.Key != c.fp {
					status = http.StatusConflict
				}
				http.Error(w, err.Error(), status)
				return
			}
			if dup {
				duplicates++
			}
		}
		writeJSON(w, map[string]bool{"ok": true, "duplicate": duplicates == entries})
	})
	mux.HandleFunc("GET "+pathStatus, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	mux.HandleFunc("POST "+pathTelemetry, func(w http.ResponseWriter, r *http.Request) {
		// Telemetry is best-effort input from the network: cap the body
		// so one misbehaving client cannot make the coordinator buffer
		// an arbitrarily large envelope.
		r.Body = http.MaxBytesReader(w, r.Body, maxTelemetryBody)
		var env telemetryEnvelope
		if err := json.NewDecoder(r.Body).Decode(&env); err != nil {
			c.obsTelemetryBad.Inc()
			http.Error(w, "fabric: bad telemetry envelope: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := c.ingestTelemetry(env); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
	})
	mux.HandleFunc("GET "+pathFleet, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Fleet())
	})
	mux.HandleFunc("GET "+pathMetrics, func(w http.ResponseWriter, r *http.Request) {
		c.Fleet() // refresh the fabric_workers_* gauges before rendering
		var sb strings.Builder
		if err := c.MergedSnapshot().WritePrometheus(&sb); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		io.WriteString(w, sb.String())
	})
	return http.TimeoutHandler(mux, requestTimeout, "fabric: request timed out")
}

// errOtherJob answers a lease or renewal that names another job.
const errOtherJob = "fabric: the coordinator is serving a different job"

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
