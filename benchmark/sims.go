package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"
)

// simPoint is one grid cell of a sim-replica workload.
type simPoint struct {
	Label string
	// Group keys the per-layer timings: the scheme for the flow-level
	// simulator, the population size for the chunk-level one.
	Group string
	Cell  simCell
	// run is the direct simulator call the traced pipeline makes.
	run func(seed uint64) (simRun, error)
}

// tracedRun is one direct simulator call as the traced pipeline saw it.
type tracedRun struct {
	Group   string
	Seconds float64
	Run     simRun
}

// simBatch is the part flow_sim and chunk_sim share: build the job, run
// it through sim.RunJob (or, traced, through the harness's own pipeline),
// and check what every sim-replica job must satisfy.
func simBatch(ctx context.Context, name, simSpan string, points []simPoint, seed uint64, replicas int, o batchOpts) (batchResult, []aggregate, []tracedRun, error) {
	var (
		r       batchResult
		spec    jobSpec
		reg     *registry
		samples *sampleStore
		err     error
	)
	r.Setup, err = repeatSetup(o.Dir, func(fresh string) (err error) {
		cells := make([]simCell, len(points))
		for i, p := range points {
			cells[i] = p.Cell
		}
		if spec, err = newSimJob(cells, seed, replicas); err != nil {
			return err
		}
		reg = newRegistry()
		samples, err = openSamples(fresh, reg)
		return err
	})
	if err != nil {
		return r, nil, nil, err
	}
	n := len(points) * replicas

	var (
		aggs []aggregate
		runs []tracedRun
	)
	m := startMeter()
	if o.Trace == nil {
		aggs, err = runSimJob(ctx, spec, samples, reg, o.Workers)
	} else {
		aggs, runs, err = tracedSimJob(ctx, spec, simSpan, points, replicas, samples, o)
	}
	if err != nil {
		return r, nil, nil, err
	}
	r.Timed = m.stop()
	r.Measured = r.Timed.Wall
	r.Cells, r.Attempted = n, n

	if len(aggs) != len(points) {
		r.fail(n, "%s: %d aggregates, want %d", name, len(aggs), len(points))
		return r, aggs, runs, nil
	}
	var out strings.Builder
	var ciRel []float64
	for i, a := range aggs {
		mean, ci := aggMean(a, onlineKey), aggCI95(a, onlineKey)
		fmt.Fprintf(&out, "%s\t%x\t%x\t%v\n", points[i].Label, math.Float64bits(mean), math.Float64bits(ci), aggCompleted(a))
		if !(mean > 0) || math.IsInf(mean, 0) || aggCompleted(a) <= 0 {
			r.fail(replicas, "%s: %s simulated no usable online time (mean %v, %v users)", name, points[i].Label, mean, aggCompleted(a))
			continue
		}
		ciRel = append(ciRel, ci/mean)
	}
	r.Output = []byte(out.String())
	r.Extra = map[string]float64{"ci_rel": mean(ciRel)}
	r.Layer = map[string]float64{"runner.cache.solves": 0, "runner.cache.mem_hits": 0, "runner.cache.disk_hits": 0}
	if o.Trace == nil {
		if stored := counterValue(reg, "samplestore_stores_total"); stored != float64(n) {
			r.fail(n, "%s: sample store took %v puts, want %d", name, stored, n)
		}
	}
	return r, aggs, runs, nil
}

// tracedSimJob is a sim-replica job with the harness as orchestrator: per
// executable cell, sample identity -> store lookup (a miss) -> simulator
// run -> sample encode -> store put, on the runner pool; then decode and
// reduce per grid cell.
func tracedSimJob(ctx context.Context, spec jobSpec, simSpan string, points []simPoint, replicas int, samples *sampleStore, o batchOpts) ([]aggregate, []tracedRun, error) {
	tr := o.Trace
	root := tr.start("bench.batch", 0, -1)
	defer tr.end(root)
	n := len(points) * replicas
	runs := make([]tracedRun, n)
	payloads, err := runPool(ctx, n, o.Workers, func(_ context.Context, i int) (payload []byte, err error) {
		cell := tr.start("bench.cell", root, i)
		defer tr.end(cell)
		pt := points[i/replicas]
		var (
			key  string
			seed uint64
			ok   bool
			run  simRun
		)
		tr.call("sim.SampleRef", cell, i, func() { key, seed, ok = specSampleRef(spec, i) })
		if !ok {
			return nil, fmt.Errorf("cell %d has no sample identity", i)
		}
		tr.call("runner/diskcache.SampleStore.Get", cell, i, func() { payload, ok = samplesGet(samples, key, seed) })
		if ok {
			return payload, nil
		}
		t0 := time.Now()
		tr.call(simSpan, cell, i, func() { run, err = pt.run(seed) })
		if err != nil {
			return nil, err
		}
		runs[i] = tracedRun{Group: pt.Group, Seconds: time.Since(t0).Seconds(), Run: run}
		tr.call("replica.EncodeSample", cell, i, func() { payload, err = encodeSample(run.Sample) })
		if err != nil {
			return nil, err
		}
		tr.call("runner/diskcache.SampleStore.Put", cell, i, func() { err = samplesPut(samples, key, seed, payload) })
		return payload, err
	})
	if err != nil {
		return nil, nil, err
	}
	aggs := make([]aggregate, len(points))
	reps := make([]sample, replicas)
	for g := range aggs {
		for j := range reps {
			i := g*replicas + j
			tr.call("replica.DecodeSample", root, i, func() { reps[j], err = decodeSample(payloads[i]) })
			if err != nil {
				return nil, nil, err
			}
		}
		tr.call("replica.Reduce", root, g*replicas, func() { aggs[g] = reduceSamples(reps) })
	}
	return aggs, runs, nil
}

// groupMs returns the run durations of one group, in ms.
func groupMs(runs []tracedRun, group string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Group == group {
			out = append(out, r.Seconds*1e3)
		}
	}
	return out
}

// ---- flow_sim ----

// flowTolerance is how far a simulated mean may sit from the fluid
// prediction: the multi-torrent schemes carry the E9 finite-size envelope
// (small per-torrent swarms), CMFSD does not.
var flowTolerance = map[string]float64{"MTCD": 0.15, "MTSD": 0.15, "MFCD": 0.15, "CMFSD": 0.02}

const flowRho = 0.3

// flowFluid names the fluid model a simulated scheme is compared with
// (MFCD coincides with MTCD in the fluid model, Section 3.4).
var flowFluid = map[string]string{"MTCD": "MTCD", "MTSD": "MTSD", "MFCD": "MTCD", "CMFSD": "CMFSD"}

var flowSchemes = []string{"MTCD", "MTSD", "MFCD", "CMFSD"}

func flowPoints(in inputs) ([]simPoint, error) {
	var pts []simPoint
	for _, sc := range flowSchemes {
		for _, p := range in.FlowP {
			cfg, err := newFlowConfig(sc, simRates, simK, p, flowRho, in.FlowHorizon, in.FlowWarmup)
			if err != nil {
				return nil, err
			}
			pts = append(pts, simPoint{
				Label: fmt.Sprintf("%s p=%g", sc, p), Group: sc, Cell: flowCell(cfg),
				run: func(seed uint64) (simRun, error) { return runFlow(cfg, seed) },
			})
		}
	}
	return pts, nil
}

func flowSimBatch(ctx context.Context, in inputs, o batchOpts) (batchResult, error) {
	pts, err := flowPoints(in)
	if err != nil {
		return batchResult{}, err
	}
	r, aggs, runs, err := simBatch(ctx, "flow_sim", "eventsim.Run", pts, in.SimSeed, in.FlowReplicas, o)
	if err != nil || len(aggs) != len(pts) {
		return r, err
	}
	// Simulated against fluid, cell by cell.
	var errs []float64
	for i, a := range aggs {
		sc, p := pts[i].Group, in.FlowP[i%len(in.FlowP)]
		fluid, err := fluidOnline(flowFluid[sc], simRates, simK, p, 1, flowRho)
		if err != nil {
			return r, err
		}
		e := relErr(aggMean(a, onlineKey), fluid)
		errs = append(errs, e)
		// The envelope is a statement about the full-length run.
		if in.Scale == 1 && !(e <= flowTolerance[sc]) {
			r.fail(in.FlowReplicas, "flow_sim: %s simulated %v vs fluid %v (%.1f%% off, limit %.0f%%)",
				pts[i].Label, aggMean(a, onlineKey), fluid, 100*e, 100*flowTolerance[sc])
		}
	}
	r.Extra["sim_relerr"] = mean(errs)
	if o.Trace != nil {
		var users, seconds float64
		for _, run := range runs {
			users += float64(run.Run.Completed)
			seconds += run.Seconds
		}
		r.Layer["eventsim.users_per_s"] = users / seconds
		for _, sc := range flowSchemes {
			r.Layer["eventsim.run_ms."+sc] = median(groupMs(runs, sc))
		}
	}
	return r, nil
}

// flowSimProbes measures what one direct run of each scheme allocates.
func flowSimProbes(_ context.Context, in inputs, _ batchOpts) (map[string]float64, error) {
	pts, err := flowPoints(in)
	if err != nil {
		return nil, err
	}
	m := startMeter()
	for i := 0; i < len(pts); i += len(in.FlowP) {
		if _, err := pts[i].run(in.SimSeed); err != nil {
			return nil, err
		}
	}
	return map[string]float64{"eventsim.alloc_kb_per_run": m.stop().AllocMB * 1024 / float64(len(flowSchemes))}, nil
}

// ---- chunk_sim ----

func chunkPoints(in inputs) ([]simPoint, error) {
	type pt struct {
		group, scheme string
		rho           float64
	}
	// The large cells come first so the pool does not end on them.
	plan := []pt{
		{"large", "MFCD", 0}, {"large", "CMFSD", 0.3},
		{"small", "MFCD", 0}, {"small", "CMFSD", 0}, {"small", "CMFSD", 0.3}, {"small", "CMFSD", 1},
	}
	var pts []simPoint
	for _, p := range plan {
		lambda, horizon, warmup := in.SmallLambda, in.SmallHorizon, in.SmallWarmup
		if p.group == "large" {
			lambda, horizon, warmup = in.LargeLambda, in.LargeHorizon, in.LargeWarmup
		}
		cfg, err := newChunkConfig(p.scheme, p.rho, lambda, horizon, warmup)
		if err != nil {
			return nil, err
		}
		pts = append(pts, simPoint{
			Label: fmt.Sprintf("%s %s rho=%g", p.group, p.scheme, p.rho), Group: p.group, Cell: chunkCell(cfg),
			run: func(seed uint64) (simRun, error) { return runChunk(cfg, seed) },
		})
	}
	return pts, nil
}

func chunkSimBatch(ctx context.Context, in inputs, o batchOpts) (batchResult, error) {
	pts, err := chunkPoints(in)
	if err != nil {
		return batchResult{}, err
	}
	r, aggs, runs, err := simBatch(ctx, "chunk_sim", "swarm.Run", pts, in.SimSeed, in.ChunkReplicas, o)
	if err != nil || len(aggs) != len(pts) {
		return r, err
	}
	// Figure 4(a)'s ordering at the chunk level (E12): collaboration with
	// all bandwidth given to finished files beats both no collaboration
	// and collaboration in name only.
	online := func(i int) float64 { return aggMean(aggs[i], onlineKey) }
	mfcd, rho0, rho1 := online(2), online(3), online(5)
	if in.Scale == 1 && !(rho0 < mfcd && rho0 < rho1) {
		r.fail(r.Cells, "chunk_sim: ordering broken: CMFSD(rho=0) %v, MFCD %v, CMFSD(rho=1) %v", rho0, mfcd, rho1)
	}
	if o.Trace != nil {
		rate := map[string]float64{}
		var chunks, seconds float64
		for _, g := range []string{"small", "large"} {
			horizon := float64(in.SmallHorizon)
			if g == "large" {
				horizon = float64(in.LargeHorizon)
			}
			var peerRounds, sec float64
			for _, run := range runs {
				if run.Group == g {
					peerRounds += (run.Run.MeanDownloaders + run.Run.MeanSeeds) * horizon
					sec += run.Seconds
					chunks += float64(run.Run.Chunks)
				}
			}
			rate[g] = peerRounds / sec
			seconds += sec
		}
		r.Layer["swarm.small.peer_rounds_per_s"] = rate["small"]
		r.Layer["swarm.large.peer_rounds_per_s"] = rate["large"]
		r.Layer["swarm.large_over_small"] = rate["large"] / rate["small"]
		r.Layer["swarm.chunks_per_s"] = chunks / seconds
	}
	return r, nil
}

// chunkSimProbes measures what one direct run at the large population
// allocates.
func chunkSimProbes(_ context.Context, in inputs, _ batchOpts) (map[string]float64, error) {
	pts, err := chunkPoints(in)
	if err != nil {
		return nil, err
	}
	m := startMeter()
	if _, err := pts[1].run(in.SimSeed); err != nil {
		return nil, err
	}
	return map[string]float64{"swarm.alloc_mb_per_run": m.stop().AllocMB}, nil
}
