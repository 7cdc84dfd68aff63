// Fleet telemetry: workers periodically push snapshot+heartbeat
// envelopes to the coordinator, which keeps a per-worker liveness table,
// merges the fleet's metric registries into one view, and re-emits
// shipped spans into its own trace sink so one Chrome trace shows every
// process. Telemetry is strictly fire-and-forget — it rides a separate
// goroutine, a push failure is counted and dropped, and nothing on the
// lease/complete path ever waits on it — so results stay byte-identical
// with telemetry on or off.
package fabric

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"mfdl/internal/obs"
)

// telemetrySchemaVersion is bumped whenever the envelope shape changes
// incompatibly; the coordinator rejects other versions.
const telemetrySchemaVersion = 1

// wireSpan is obs.SpanEvent flattened for the telemetry envelope.
type wireSpan struct {
	Name      string      `json:"name"`
	Pid       int         `json:"pid,omitempty"`
	StartNano int64       `json:"start_ns"`
	DurNano   int64       `json:"dur_ns"`
	Labels    []obs.Label `json:"labels,omitempty"`
}

func toWireSpans(events []obs.SpanEvent) []wireSpan {
	out := make([]wireSpan, len(events))
	for i, e := range events {
		out[i] = wireSpan{
			Name: e.Name, Pid: e.PID,
			StartNano: e.Start.UnixNano(), DurNano: int64(e.Duration),
			Labels: e.Labels,
		}
	}
	return out
}

func (s wireSpan) event() obs.SpanEvent {
	return obs.SpanEvent{
		Name: s.Name, PID: s.Pid,
		Start: time.Unix(0, s.StartNano), Duration: time.Duration(s.DurNano),
		Labels: s.Labels,
	}
}

// telemetryEnvelope is one worker push: heartbeat (identity, pace,
// inflight lease), a canonical registry snapshot, and the span batch
// completed since the previous push.
type telemetryEnvelope struct {
	Schema        int             `json:"schema"`
	Fingerprint   string          `json:"fingerprint,omitempty"`
	Worker        string          `json:"worker"`
	Pid           int             `json:"pid,omitempty"`
	Epoch         int64           `json:"epoch,omitempty"`
	Seq           int64           `json:"seq"`
	IntervalMilli int64           `json:"interval_ms,omitempty"`
	CellsTotal    uint64          `json:"cells_total"`
	CellsPerSec   float64         `json:"cells_per_sec,omitempty"`
	LeaseID       string          `json:"lease,omitempty"`
	InflightCells int             `json:"inflight_cells,omitempty"`
	Parked        bool            `json:"parked,omitempty"`
	ParkedSeconds float64         `json:"parked_seconds,omitempty"`
	Snapshot      json.RawMessage `json:"snapshot,omitempty"`
	Spans         []wireSpan      `json:"spans,omitempty"`
}

// workerTelemetry is the coordinator's record of one worker's latest
// push.
type workerTelemetry struct {
	env      telemetryEnvelope
	lastSeen time.Time
	snap     obs.Snapshot
	hasSnap  bool
}

// Worker liveness states, judged from heartbeat age against the lease
// TTL: a worker is healthy while its last push is younger than half the
// TTL, stale until a full TTL, and lost beyond it — the same horizon at
// which its leases are forfeited, so "lost" and "cells re-issued" line
// up. A worker whose latest envelope says it is parked (riding out a
// coordinator outage with capped backoff, see WorkerOptions.MaxOutage)
// shows as parked instead, until its heartbeats age into lost.
const (
	WorkerHealthy = "healthy"
	WorkerStale   = "stale"
	WorkerParked  = "parked"
	WorkerLost    = "lost"
)

// FleetWorker is one worker's row in the fleet view.
type FleetWorker struct {
	Worker         string  `json:"worker"`
	Pid            int     `json:"pid,omitempty"`
	State          string  `json:"state"`
	AgeSeconds     float64 `json:"age_seconds"`
	CellsTotal     uint64  `json:"cells_total"`
	CellsPerSec    float64 `json:"cells_per_sec"`
	CellSecondsP50 float64 `json:"cell_seconds_p50,omitempty"`
	Straggler      bool    `json:"straggler,omitempty"`
	LeaseID        string  `json:"lease,omitempty"`
	InflightCells  int     `json:"inflight_cells,omitempty"`
	ParkedSeconds  float64 `json:"parked_seconds,omitempty"`
}

// Fleet is the machine-readable fleet view served on GET /v1/fleet: job
// progress plus every worker that has ever pushed telemetry, with
// liveness state, observed rates and the straggler flag (a worker whose
// median cell seconds exceed stragglerFactor times the fleet median).
type Fleet struct {
	Status          Status        `json:"status"`
	Workers         []FleetWorker `json:"workers"`
	Healthy         int           `json:"healthy"`
	Stale           int           `json:"stale"`
	Parked          int           `json:"parked"`
	Lost            int           `json:"lost"`
	CellsPerSec     float64       `json:"cells_per_sec"`
	CellSecondsP50  float64       `json:"cell_seconds_p50,omitempty"`
	StragglerFactor float64       `json:"straggler_factor"`
}

// ingestTelemetry records one pushed envelope: the heartbeat lands in
// the liveness table, the snapshot replaces the worker's previous one,
// and shipped spans are re-emitted into the coordinator's trace sink.
func (c *Coordinator) ingestTelemetry(env telemetryEnvelope) error {
	if env.Schema != telemetrySchemaVersion {
		c.obsTelemetryBad.Inc()
		return fmt.Errorf("fabric: telemetry schema %d, this coordinator speaks %d",
			env.Schema, telemetrySchemaVersion)
	}
	if env.Worker == "" {
		c.obsTelemetryBad.Inc()
		return fmt.Errorf("fabric: telemetry without a worker id")
	}
	wt := &workerTelemetry{env: env, lastSeen: c.opts.Clock()}
	if len(env.Snapshot) > 0 {
		snap, err := obs.DecodeSnapshot(env.Snapshot)
		if err != nil {
			c.obsTelemetryBad.Inc()
			return err
		}
		wt.snap, wt.hasSnap = snap, true
	}
	if math.IsNaN(wt.env.CellsPerSec) || math.IsInf(wt.env.CellsPerSec, 0) || wt.env.CellsPerSec < 0 {
		wt.env.CellsPerSec = 0
	}
	if math.IsNaN(wt.env.ParkedSeconds) || math.IsInf(wt.env.ParkedSeconds, 0) || wt.env.ParkedSeconds < 0 {
		wt.env.ParkedSeconds = 0
	}
	c.tmu.Lock()
	prev := c.telemetry[env.Worker]
	// Out-of-order pushes (an old beat racing a newer one) keep the
	// newest sequence number — but only within one worker run. Epoch is
	// stamped once per run, so a worker restarting under the same name
	// (seq back at 1, newer epoch) supersedes its previous run instead
	// of being dropped until seq catches up to the old value.
	if prev == nil || env.Epoch > prev.env.Epoch ||
		(env.Epoch == prev.env.Epoch && env.Seq >= prev.env.Seq) {
		c.telemetry[env.Worker] = wt
	}
	c.tmu.Unlock()
	c.obsTelemetry.Inc()
	if len(env.Spans) > 0 {
		c.obsTelemetrySpans.Add(uint64(len(env.Spans)))
		for _, s := range env.Spans {
			c.treg.EmitSpan(s.event())
		}
	}
	return nil
}

// workerState classifies a heartbeat age.
func (c *Coordinator) workerState(age time.Duration) string {
	switch {
	case age > c.opts.LeaseTTL:
		return WorkerLost
	case age > c.opts.LeaseTTL/2:
		return WorkerStale
	default:
		return WorkerHealthy
	}
}

// Fleet assembles the fleet view and refreshes the
// fabric_workers_{healthy,stale,lost} gauges. The straggler flag
// compares each worker's median observed cell seconds (from the
// coordinator-side fabric_cell_seconds histograms fed by completion
// headers) against the fleet median.
func (c *Coordinator) Fleet() Fleet {
	now := c.opts.Clock()
	fleetP50 := c.treg.Histogram("fabric_cell_seconds", obs.LatencyBuckets).Quantile(0.5)
	f := Fleet{
		Status:          c.Status(),
		CellSecondsP50:  finiteOrZero(fleetP50),
		StragglerFactor: stragglerFactor,
	}
	c.tmu.Lock()
	workers := make([]string, 0, len(c.telemetry))
	for w := range c.telemetry {
		workers = append(workers, w)
	}
	sort.Strings(workers)
	for _, w := range workers {
		wt := c.telemetry[w]
		age := now.Sub(wt.lastSeen)
		p50 := c.treg.Histogram("fabric_cell_seconds", obs.LatencyBuckets, obs.L("worker", w)).Quantile(0.5)
		fw := FleetWorker{
			Worker: w, Pid: wt.env.Pid,
			State:          c.workerState(age),
			AgeSeconds:     age.Seconds(),
			CellsTotal:     wt.env.CellsTotal,
			CellsPerSec:    wt.env.CellsPerSec,
			CellSecondsP50: finiteOrZero(p50),
			LeaseID:        wt.env.LeaseID,
			InflightCells:  wt.env.InflightCells,
			ParkedSeconds:  wt.env.ParkedSeconds,
		}
		// A self-reported park overrides healthy/stale — the worker is
		// alive but deliberately idle — but never lost: a parked worker
		// that stops beating ages into lost like any other.
		if wt.env.Parked && fw.State != WorkerLost {
			fw.State = WorkerParked
		}
		if p50 > stragglerFactor*fleetP50 && fleetP50 > 0 {
			fw.Straggler = true
		}
		switch fw.State {
		case WorkerHealthy:
			f.Healthy++
			f.CellsPerSec += fw.CellsPerSec
		case WorkerStale:
			f.Stale++
			f.CellsPerSec += fw.CellsPerSec
		case WorkerParked:
			f.Parked++
		default:
			f.Lost++
		}
		f.Workers = append(f.Workers, fw)
	}
	c.tmu.Unlock()
	c.treg.Gauge("fabric_workers_healthy").Set(float64(f.Healthy))
	c.treg.Gauge("fabric_workers_stale").Set(float64(f.Stale))
	c.treg.Gauge("fabric_workers_parked").Set(float64(f.Parked))
	c.treg.Gauge("fabric_workers_lost").Set(float64(f.Lost))
	return f
}

func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// MergedSnapshot folds every worker's latest registry snapshot into the
// coordinator's own: counters sum, histograms bucket-merge, gauges gain
// a worker=<id> label. A worker whose snapshot cannot be merged (e.g.
// histogram bounds from a different build) is skipped and counted, so
// one bad worker cannot take /metrics down.
func (c *Coordinator) MergedSnapshot() obs.Snapshot {
	s := c.treg.Snapshot()
	c.tmu.Lock()
	defer c.tmu.Unlock()
	for w, wt := range c.telemetry {
		if !wt.hasSnap {
			continue
		}
		// Merge into a scratch clone and commit only on success: Merge
		// mutates its target family-by-family, so a snapshot failing on
		// a later family (e.g. histogram bounds from a different build)
		// must not leave half-merged data in the served view.
		scratch := s.Clone()
		if err := scratch.Merge(wt.snap, obs.L("worker", w)); err != nil {
			c.obsTelemetryUnmerged.Inc()
			continue
		}
		s = scratch
	}
	return s
}
