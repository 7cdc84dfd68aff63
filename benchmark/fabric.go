package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The fabric_fine cell: a flow-level run small enough (about half a
// millisecond) that protocol and store costs outweigh the simulation.
const (
	fabricK       = 4
	fabricHorizon = 120
	fabricWarmup  = 24
)

func fabricConfigs(in inputs) ([]flowConfig, error) {
	cfgs := make([]flowConfig, len(in.FabricP))
	for i, p := range in.FabricP {
		var err error
		if cfgs[i], err = newFlowConfig("MTCD", simRates, fabricK, p, 0, fabricHorizon, fabricWarmup); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

func fabricSpec(in inputs) (jobSpec, error) {
	cfgs, err := fabricConfigs(in)
	if err != nil {
		return jobSpec{}, err
	}
	cells := make([]simCell, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = flowCell(cfg)
	}
	return newSimJob(cells, in.SimSeed, in.FabricReplicas)
}

// benchSpanHeader carries the client span's ID to the coordinator-side
// middleware, so a handler span names the request that caused it.
const benchSpanHeader = "X-Bench-Span"

// fabricStats is what the timing RoundTripper, the handler middleware and
// the worker hooks observe during one traced phase.
type fabricStats struct {
	tr *tracer

	mu        sync.Mutex
	rtt       map[string][]float64 // client side, ms, by path
	handler   map[string][]float64 // coordinator side, ms, by path
	idlePolls int
	idleHints []float64 // ms
	retries   int
	compute   time.Duration
}

func newFabricStats(tr *tracer) *fabricStats {
	return &fabricStats{tr: tr, rtt: map[string][]float64{}, handler: map[string][]float64{}}
}

// endpoint turns "/v1/complete" into "complete".
func endpoint(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }

// timingTransport times every request a worker makes and reads the lease
// responses that carried no work.
type timingTransport struct {
	base  http.RoundTripper
	stats *fabricStats
}

func (t timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ep := endpoint(req.URL.Path)
	st := t.stats
	id := st.tr.start("fabric.client."+ep, 0, -1)
	req = req.Clone(req.Context())
	req.Header.Set(benchSpanHeader, strconv.Itoa(id))
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	var body []byte
	if err == nil {
		// Read the body here so the round trip covers the whole response.
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(body))
	}
	st.tr.end(id)
	dur := ms(time.Since(t0))

	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil || resp.StatusCode >= 500 {
		// A worker cancelled in its tail poll is not a retry.
		if req.Context().Err() == nil {
			st.retries++
		}
		return resp, err
	}
	st.rtt[ep] = append(st.rtt[ep], dur)
	if ep == "lease" {
		var lr struct {
			Done    bool            `json:"done"`
			RetryMs float64         `json:"retry_ms"`
			Lease   json.RawMessage `json:"lease"`
		}
		if json.Unmarshal(body, &lr) == nil && !lr.Done && lr.Lease == nil {
			st.idlePolls++
			st.idleHints = append(st.idleHints, lr.RetryMs)
		}
	}
	return resp, nil
}

// middleware times the coordinator's handlers from the server side.
func (st *fabricStats) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpoint(r.URL.Path)
		parent, _ := strconv.Atoi(r.Header.Get(benchSpanHeader))
		id := st.tr.start("fabric.handler."+ep, parent, -1)
		t0 := time.Now()
		next.ServeHTTP(w, r)
		st.tr.end(id)
		dur := ms(time.Since(t0))
		st.mu.Lock()
		st.handler[ep] = append(st.handler[ep], dur)
		st.mu.Unlock()
	})
}

// fabricPhase is one run of the job through a coordinator.
type fabricPhase struct {
	Setup    time.Duration
	Use      usage
	Payloads [][]byte
	coordReg *registry
	workers  []*registry
}

// runFabricPhase serves the job the way `sweepd serve -local-workers`
// does — checkpoint and sample store, CLI-default coordinator options, a
// private registry and span collector per worker, 1 s heartbeats — over a
// loopback server, and times from the first worker's start until the
// reduced aggregates are in hand. With workers = 0 it is a resume: the
// coordinator must find every cell in the stores.
func runFabricPhase(ctx context.Context, spec jobSpec, dir string, workers int, stats *fabricStats) (fabricPhase, error) {
	var ph fabricPhase
	t0 := time.Now()
	ph.coordReg = newRegistry()
	ckpt, err := openCheckpoint(filepath.Join(dir, "checkpoint"))
	if err != nil {
		return ph, err
	}
	samples, err := openSamples(filepath.Join(dir, "samples"), ph.coordReg)
	if err != nil {
		return ph, err
	}
	if workers == 0 {
		// Resume: building the coordinator is the work being timed.
		ph.Setup = time.Since(t0)
		m := startMeter()
		coord, err := newCoordinator(spec, ckpt, samples, ph.coordReg)
		if err != nil {
			return ph, err
		}
		wctx, cancel := context.WithTimeout(ctx, time.Second)
		defer cancel()
		if err := coordWait(wctx, coord); err != nil {
			return ph, fmt.Errorf("resume left cells to lease: %w", err)
		}
		if ph.Payloads, err = coordPayloads(ctx, coord); err != nil {
			return ph, err
		}
		if _, err := reduceJob(spec, ph.Payloads); err != nil {
			return ph, err
		}
		ph.Use = m.stop()
		return ph, nil
	}

	coord, err := newCoordinator(spec, ckpt, samples, ph.coordReg)
	if err != nil {
		return ph, err
	}
	handler := coordHandler(coord)
	if stats != nil {
		handler = stats.middleware(handler)
	}
	srv := httptest.NewServer(handler)
	defer srv.Close()
	ws := make([]fabricWorker, workers)
	for i := range ws {
		name := fmt.Sprintf("local-%d", i)
		reg, spans := newWorkerRegistry(name)
		ph.workers = append(ph.workers, reg)
		// One connection pool per worker, as separate `sweepd work`
		// processes would have.
		transport := &http.Transport{}
		defer transport.CloseIdleConnections()
		ws[i] = fabricWorker{Name: name, Reg: reg, Spans: spans, Samples: samples,
			Client: &http.Client{Transport: transport}}
		if stats != nil {
			ws[i].Client.Transport = timingTransport{base: transport, stats: stats}
			var leasedAt time.Time
			ws[i].OnLease = func(string, []int) { leasedAt = time.Now() }
			ws[i].OnCell = func(cell int) {
				now := time.Now()
				stats.tr.record("sim.EvaluateJobCell", 0, cell, leasedAt, now)
				stats.mu.Lock()
				stats.compute += now.Sub(leasedAt)
				stats.mu.Unlock()
				leasedAt = now
			}
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, workers)
	ph.Setup = time.Since(t0)

	m := startMeter()
	for _, w := range ws {
		go func() { errs <- fabricWork(wctx, srv.URL, w) }()
	}
	waited := make(chan error, 1)
	go func() { waited <- coordWait(wctx, coord) }()
	running := workers
	for waiting := true; waiting; {
		select {
		case err = <-waited:
			waiting = false
		case werr := <-errs:
			// A worker returning nil saw the job done; one returning an
			// error leaves cells nobody may ever finish.
			running--
			if werr != nil {
				err, waiting = werr, false
			}
		}
	}
	if err == nil {
		ph.Payloads, err = coordPayloads(ctx, coord)
	}
	if err == nil {
		_, err = reduceJob(spec, ph.Payloads)
	}
	ph.Use = m.stop()

	// A worker still in its empty-queue poll (up to LeaseTTL/4 = 7.5 s)
	// is cancelled, not waited for: a real serve run would sit that poll
	// out, which fabric.idle_polls and fabric.idle_hint_ms report.
	cancel()
	for ; running > 0; running-- {
		if werr := <-errs; werr != nil && !errors.Is(werr, context.Canceled) && err == nil {
			err = werr
		}
	}
	return ph, err
}

func fabricFineBatch(ctx context.Context, in inputs, o batchOpts) (batchResult, error) {
	var (
		r    batchResult
		spec jobSpec
		n    int
		err  error
	)
	r.Setup, err = repeatSetup(o.Dir, func(string) (err error) {
		if spec, err = fabricSpec(in); err != nil {
			return err
		}
		n, err = specCells(spec)
		return err
	})
	if err != nil {
		return r, err
	}

	var stats *fabricStats
	if o.Trace != nil {
		stats = newFabricStats(o.Trace)
	}
	// Phase 1: one worker. Phase 2: W workers (the reported timed
	// section). Phase 3: a second coordinator over phase 2's stores.
	one, err := runFabricPhase(ctx, spec, filepath.Join(o.Dir, "w1"), 1, nil)
	if err != nil {
		return r, fmt.Errorf("phase 1: %w", err)
	}
	root := o.Trace.start("bench.batch", 0, -1)
	many, err := runFabricPhase(ctx, spec, filepath.Join(o.Dir, "wN"), o.Workers, stats)
	o.Trace.end(root)
	if err != nil {
		return r, fmt.Errorf("phase 2: %w", err)
	}
	resume, err := runFabricPhase(ctx, spec, filepath.Join(o.Dir, "wN"), 0, nil)
	if err != nil {
		return r, fmt.Errorf("phase 3: %w", err)
	}
	r.Setup += one.Setup + many.Setup + resume.Setup
	r.Timed = many.Use
	r.Measured = one.Use.Wall + many.Use.Wall + resume.Use.Wall
	r.Cells = n

	// Every phase must deliver what a local run of the same spec computes.
	want, err := runJobPayloads(ctx, spec, nil, nil, o.Workers)
	if err != nil {
		return r, err
	}
	for _, ph := range []struct {
		name     string
		payloads [][]byte
	}{{"one worker", one.Payloads}, {"W workers", many.Payloads}, {"resume", resume.Payloads}} {
		r.Attempted += n
		bad := 0
		for i := range want {
			if i >= len(ph.payloads) || !bytes.Equal(ph.payloads[i], want[i]) {
				bad++
			}
		}
		if bad > 0 {
			r.fail(bad, "fabric_fine: %d payloads of the %s phase differ from the local run's", bad, ph.name)
		}
	}
	r.Output = bytes.Join(many.Payloads, []byte{'\n'})

	expired := counterValue(many.coordReg, "fabric_leases_expired_total")
	dups := counterValue(many.coordReg, "fabric_cells_duplicate_total")
	if expired != 0 || dups != 0 {
		r.fail(n, "fabric_fine: %v leases expired and %v completions were duplicates on a clean run", expired, dups)
	}
	if resumed := counterValue(resume.coordReg, "fabric_cells_resumed_total"); resumed != float64(n) {
		r.fail(n, "fabric_fine: the resume found %v of %d cells in the stores", resumed, n)
	}
	speedup := one.Use.Wall.Seconds() / many.Use.Wall.Seconds()
	r.Extra = map[string]float64{"scale_eff": speedup / float64(o.Workers)}
	r.Layer = map[string]float64{
		"runner.cache.solves": 0, "runner.cache.mem_hits": 0, "runner.cache.disk_hits": 0,
		"runner.speedup_w":          speedup,
		"fabric.leases_expired":     expired,
		"fabric.duplicates":         dups,
		"fabric.resume_cells_per_s": float64(n) / resume.Use.Wall.Seconds(),
	}
	if stats != nil {
		fabricLayerMetrics(r.Layer, stats, many, n, o.Workers)
		if err := obsLayerMetrics(r.Layer, many.workers, in.ProbeWall); err != nil {
			return r, err
		}
	}
	return r, nil
}

// fabricLayerMetrics folds one traced phase's observations into the
// per-layer table.
func fabricLayerMetrics(out map[string]float64, st *fabricStats, ph fabricPhase, cells, workers int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	requests := 0
	for _, d := range st.rtt {
		requests += len(d)
	}
	out["fabric.requests_per_cell"] = float64(requests) / float64(cells)
	out["fabric.lease_rtt_ms_p50"] = median(st.rtt["lease"])
	out["fabric.complete_rtt_ms_p50"] = median(st.rtt["complete"])
	out["fabric.complete_rtt_ms_p99"] = quantile(st.rtt["complete"], 0.99)
	out["fabric.complete_handler_ms_p50"] = median(st.handler["complete"])
	out["fabric.complete_handler_ms_p99"] = quantile(st.handler["complete"], 0.99)
	out["fabric.telemetry_push_ms_p50"] = median(st.rtt["telemetry"])
	out["fabric.worker_busy_frac"] = st.compute.Seconds() / (float64(workers) * ph.Use.Wall.Seconds())
	out["fabric.idle_polls"] = float64(st.idlePolls)
	out["fabric.idle_hint_ms"] = 0
	if len(st.idleHints) > 0 {
		out["fabric.idle_hint_ms"] = mean(st.idleHints)
	}
	out["fabric.retries"] = float64(st.retries)
}

// obsLayerMetrics times the snapshot codec and the fleet merge on the
// registries the phase's workers actually filled.
func obsLayerMetrics(out map[string]float64, workers []*registry, probeWall time.Duration) error {
	snaps := make([]snapshot, len(workers))
	for i, reg := range workers {
		snaps[i] = takeSnapshot(reg)
	}
	var (
		data []byte
		err  error
	)
	out["obs.snapshot.encode_ms"] = ms(timePer(probeWall, 5, func() { data, err = encodeSnapshot(snaps[0]) }))
	if err != nil {
		return err
	}
	out["obs.snapshot.bytes"] = float64(len(data))
	out["obs.snapshot.decode_ms"] = ms(timePer(probeWall, 5, func() { _, err = decodeSnapshot(data) }))
	if err != nil {
		return err
	}
	merges := 0
	m := startMeter()
	out["obs.merge_ms"] = ms(timePer(probeWall, 5, func() {
		merges++
		var fleet snapshot
		for i, s := range snaps {
			if e := mergeSnapshot(&fleet, s, fmt.Sprintf("local-%d", i)); e != nil {
				err = e
			}
		}
	}))
	out["obs.merge_alloc_mb"] = m.stop().AllocMB / float64(merges)
	return err
}

// fabricFineProbes times single calls into what the fabric does per cell
// and per job, on fabric_fine's own spec.
func fabricFineProbes(ctx context.Context, in inputs, o batchOpts) (map[string]float64, error) {
	probeWall := in.ProbeWall
	out := map[string]float64{}
	spec, err := fabricSpec(in)
	if err != nil {
		return nil, err
	}
	n, err := specCells(spec)
	if err != nil {
		return nil, err
	}
	cfgs, err := fabricConfigs(in)
	if err != nil {
		return nil, err
	}
	fp := specFingerprint(spec)

	// Job spec: what a coordinator and every worker do once per job.
	var canon []byte
	out["runner.jobspec.validate_ms"] = ms(timePer(probeWall, 3, func() { err = specValidate(spec) }))
	if err != nil {
		return nil, err
	}
	out["runner.jobspec.canonical_us"] = us(timePer(probeWall, 3, func() { canon, err = specCanonical(spec) }))
	if err != nil {
		return nil, err
	}
	out["runner.jobspec.parse_us"] = us(timePer(probeWall, 3, func() { _, err = specParse(canon) }))
	if err != nil {
		return nil, err
	}
	out["runner.jobspec.fingerprint_us"] = us(timePer(probeWall, 3, func() { fp = specFingerprint(spec) }))

	// The cell itself, run directly, against the same cell through the
	// job kind: the difference is the per-cell params re-parse, sim.New
	// re-validate and sample-key re-marshal.
	cell := 0
	direct := timePer(2*probeWall, 20, func() {
		cell = (cell + 1) % n
		var run simRun
		if run, err = runFlow(cfgs[cell/in.FabricReplicas], replicaSeed(in.SimSeed, cell/in.FabricReplicas, cell%in.FabricReplicas)); err == nil {
			_, err = encodeSample(run.Sample)
		}
	})
	if err != nil {
		return nil, err
	}
	tiny := timePer(2*probeWall, 20, func() {
		cell = (cell + 1) % n
		_, err = runFlow(cfgs[cell/in.FabricReplicas], replicaSeed(in.SimSeed, cell/in.FabricReplicas, cell%in.FabricReplicas))
	})
	if err != nil {
		return nil, err
	}
	out["eventsim.tiny_run_us"] = us(tiny)
	viaKind := timePer(2*probeWall, 20, func() {
		cell = (cell + 1) % n
		_, err = evaluateJobCell(ctx, spec, nil, cell)
	})
	if err != nil {
		return nil, err
	}
	out["sim.evaluate_overhead_us"] = us(viaKind - direct)
	out["sim.sampleref_us"] = us(timePer(probeWall, 20, func() {
		cell = (cell + 1) % n
		specSampleRef(spec, cell)
	}))

	// Samples, entries and the reduction, on real payloads.
	payloads, err := runJobPayloads(ctx, spec, nil, nil, o.Workers)
	if err != nil {
		return nil, err
	}
	var smp sample
	out["replica.sample.bytes"] = float64(len(payloads[0]))
	out["replica.sample.decode_us"] = us(timePer(probeWall, 20, func() { smp, err = decodeSample(payloads[0]) }))
	if err != nil {
		return nil, err
	}
	out["replica.sample.encode_us"] = us(timePer(probeWall, 20, func() { _, err = encodeSample(smp) }))
	if err != nil {
		return nil, err
	}
	reps := make([]sample, in.FabricReplicas)
	for i := range reps {
		if reps[i], err = decodeSample(payloads[i]); err != nil {
			return nil, err
		}
	}
	out["replica.reduce_us"] = us(timePer(probeWall, 5, func() { reduceSamples(reps) }))
	out["sim.reducejob_ms"] = ms(timePer(probeWall, 3, func() { _, err = reduceJob(spec, payloads) }))
	if err != nil {
		return nil, err
	}
	entry := newEntry(fp, 0, payloads[0])
	out["fabric.entry.codec_us"] = us(timePer(probeWall, 20, func() {
		var data []byte
		if data, err = entryEncode(entry); err == nil {
			_, err = entryDecode(data)
		}
	}))
	if err != nil {
		return nil, err
	}

	// The stores the coordinator writes under its lock, then Complete
	// itself: lock + both writes, no HTTP, one caller.
	ckptDir, sampleDir := filepath.Join(o.Dir, "probe-ckpt"), filepath.Join(o.Dir, "probe-samples")
	ckpt, err := openCheckpoint(ckptDir)
	if err != nil {
		return nil, err
	}
	samples, err := openSamples(sampleDir, nil)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i, p := range payloads {
		if err := ckptPutEntry(ckpt, newEntry(fp, i, p)); err != nil {
			return nil, err
		}
	}
	out["diskcache.checkpoint.put_us"] = us(time.Since(t0)) / float64(n)
	t0 = time.Now()
	for i := range payloads {
		if _, ok := ckptGet(ckpt, fp, i); !ok {
			return nil, fmt.Errorf("fabric_fine probe: checkpoint %d missing", i)
		}
	}
	out["diskcache.checkpoint.get_us"] = us(time.Since(t0)) / float64(n)
	keys, seeds := make([]string, n), make([]uint64, n)
	for i := range keys {
		keys[i], seeds[i], _ = specSampleRef(spec, i)
	}
	t0 = time.Now()
	for i, p := range payloads {
		if err := samplesPut(samples, keys[i], seeds[i], p); err != nil {
			return nil, err
		}
	}
	out["diskcache.samples.put_us"] = us(time.Since(t0)) / float64(n)
	t0 = time.Now()
	for i := range payloads {
		if _, ok := samplesGet(samples, keys[i], seeds[i]); !ok {
			return nil, fmt.Errorf("fabric_fine probe: sample %d missing", i)
		}
	}
	out["diskcache.samples.get_us"] = us(time.Since(t0)) / float64(n)
	for name, dir := range map[string]string{"checkpoint": ckptDir, "samples": sampleDir} {
		size, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		out["diskcache."+name+".entry_bytes"] = float64(size) / float64(n)
	}

	dckpt, err := openCheckpoint(filepath.Join(o.Dir, "probe-direct-ckpt"))
	if err != nil {
		return nil, err
	}
	dsamples, err := openSamples(filepath.Join(o.Dir, "probe-direct-samples"), nil)
	if err != nil {
		return nil, err
	}
	coord, err := newCoordinator(spec, dckpt, dsamples, nil)
	if err != nil {
		return nil, err
	}
	entries := make([]ckptEntry, n)
	for i, p := range payloads {
		entries[i] = newEntry(fp, i, p)
	}
	t0 = time.Now()
	for _, e := range entries {
		if _, err := coordComplete(coord, e); err != nil {
			return nil, err
		}
	}
	out["fabric.complete_direct_us"] = us(time.Since(t0)) / float64(n)
	return out, nil
}
