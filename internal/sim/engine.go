package sim

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/rng"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// Options configure one in-memory engine run (RunSequential).
type Options struct {
	// Replicas is R, the number of independently seeded replicas per
	// cell; 0 means 1. Negative values are an error.
	Replicas int
	// Workers bounds the shared worker pool; <= 0 means all cores.
	Workers int
	// Seed is the base seed of the replica seed derivation.
	Seed uint64
	// Obs, when non-nil, instruments the run: a replica_simulate_seconds
	// histogram per (cell, replica) Simulate, a replica_reduce_seconds
	// histogram per cell reduction, and — with a span sink attached —
	// "simulate" and "reduce" phase spans labeled with cell/replica
	// indices. The registry is also passed down to the runner pool. Nil
	// disables instrumentation (no clock reads, no allocations).
	Obs *obs.Registry
	// Samples, when non-nil together with SampleKey, persists every
	// computed replica sample under (SampleKey(cell), seed) and replays
	// stored samples instead of simulating them. Because a sample is a
	// pure function of its configuration and seed, and growing R only
	// appends seeds (see replica.Seeds), a re-run with a larger replica
	// count reuses every earlier sample — R grows, it never resamples.
	Samples *diskcache.SampleStore
	// SampleKey names cell's sample-store identity: everything that
	// determines the cell's samples except the seed (typically a
	// fingerprint of the simulator configuration). Required for Samples to
	// take effect.
	SampleKey func(cell int) string
}

// Stopping configures sequential stopping: per cell, the replica count
// grows (doubling, bounded by MaxReplicas) until the 95% confidence
// half-width of the named scalar metric reaches Target. A zero Target or
// empty Metric disables stopping: every cell runs the fixed replica count.
type Stopping struct {
	// Metric is the scalar metric (a Sample.Values key, e.g.
	// replica.OnlinePerFile) whose confidence interval drives the stopping
	// rule. A cell that never emits the metric counts as converged.
	Metric string
	// Target is the CI95 half-width at which a cell stops growing;
	// <= 0 disables stopping.
	Target float64
	// MaxReplicas bounds the growth per cell. Values below the starting
	// replica count are raised to it.
	MaxReplicas int
}

// Enabled reports whether the rule actually stops anything.
func (st Stopping) Enabled() bool { return st.Target > 0 && st.Metric != "" }

// round runs one round of a sequential-stopping campaign: every cell i must
// end the round with want[i] replicas (replica indices [0, want[i])), and
// the round returns one Agg per cell reduced over exactly those replicas.
// want belongs to the caller and changes between rounds; a round must not
// keep it.
type round func(ctx context.Context, want []int) ([]replica.Agg, error)

// sequential is the one stopping loop; every executor supplies only its
// round. All cells start at replicas (at least 1; at least 2 with stop
// enabled, so a CI exists); after each round the cells whose
// CI95(stop.Metric) still exceeds stop.Target double their count, bounded
// by stop.MaxReplicas. It returns the aggregates of the first round in
// which no cell grew — with stop disabled, the only round.
func sequential(ctx context.Context, cells, replicas int, stop Stopping, run round) ([]replica.Agg, error) {
	start, maxR := max(replicas, 1), max(replicas, 1)
	if stop.Enabled() {
		start = max(start, 2)
		maxR = max(stop.MaxReplicas, start)
	}
	want := make([]int, cells)
	for i := range want {
		want[i] = start
	}
	for {
		aggs, err := run(ctx, want)
		if err != nil {
			return nil, err
		}
		grew := false
		for i, agg := range aggs {
			if want[i] < maxR && agg.CI95(stop.Metric) > stop.Target {
				want[i] = min(2*want[i], maxR)
				grew = true
			}
		}
		if !grew {
			return aggs, nil
		}
	}
}

// RunSequential runs the stopping loop in memory: a round simulates, over
// one bounded worker pool, only the (cell, replica) pairs no earlier round
// drew. sim is called once per cell (serially, before any replica starts)
// to obtain the cell's simulator, which then receives all of the cell's
// Simulate calls, possibly concurrently. Replica seeds are a pure function
// of (base seed, cell, replica) and samples are reduced in replica order,
// so the result is byte-identical at any worker count; a sample store
// (Options.Samples) lets every round and re-run reuse drawn samples. With
// stop disabled every cell runs the fixed replica count. The first error
// (by flattened (cell, replica) index) cancels the remaining replicas and
// is returned.
func RunSequential(ctx context.Context, cells int, sim func(cell int) replica.Sim, opts Options, stop Stopping) ([]replica.Agg, error) {
	if opts.Replicas < 0 {
		return nil, fmt.Errorf("replica: Replicas = %d must be >= 0", opts.Replicas)
	}
	if cells < 0 {
		return nil, fmt.Errorf("replica: cells = %d must be >= 0", cells)
	}
	if cells == 0 {
		return nil, ctx.Err()
	}
	sims := make([]replica.Sim, cells)
	for i := range sims {
		sims[i] = sim(i)
		if sims[i] == nil {
			return nil, fmt.Errorf("replica: sim(%d) returned nil", i)
		}
	}
	type pair struct{ cell, rep int }
	have := make([][]replica.Sample, cells)
	return sequential(ctx, cells, opts.Replicas, stop, func(ctx context.Context, want []int) ([]replica.Agg, error) {
		// The work list enumerates missing (cell, replica) pairs in
		// (cell, replica) order, so appending round results keeps every
		// cell's samples in replica order — the order Reduce requires.
		var work []pair
		for i := range want {
			for j := len(have[i]); j < want[i]; j++ {
				work = append(work, pair{cell: i, rep: j})
			}
		}
		seeds := replica.Seeds(opts.Seed, cells, slices.Max(want))
		grid, err := runner.Indexed("job", len(work))
		if err != nil {
			return nil, err
		}
		samples, err := runner.Run(ctx, grid,
			func(ctx context.Context, pt runner.Point, _ *rng.Source) (replica.Sample, error) {
				p := work[pt.Index]
				key := ""
				if opts.Samples != nil && opts.SampleKey != nil {
					key = opts.SampleKey(p.cell)
				}
				return simulateStored(ctx, sims[p.cell],
					replica.Rep{Cell: p.cell, Replica: p.rep, Seed: seeds[p.cell][p.rep]},
					key, opts.Samples, opts.Obs)
			}, runner.Options{Workers: opts.Workers, Seed: opts.Seed, Obs: opts.Obs})
		if err != nil {
			return nil, err
		}
		for k, s := range samples {
			have[work[k].cell] = append(have[work[k].cell], s)
		}
		return reduceCells(have, opts.Obs), nil
	})
}

// simulateStored runs one replica through the sample store — the single
// path to a sample, shared by RunSequential and the sim-replica job kind,
// so a sample is computed the same way no matter which executor asked for
// it. A stored sample under (key, r.Seed) is decoded and returned without
// simulating; otherwise the simulation runs and its encoded sample is
// persisted (best-effort) before returning. An empty key or nil store
// disables the store entirely. A stored payload that fails to decode —
// corrupt, or written under another sample schema — reads as a miss and
// is recomputed.
func simulateStored(ctx context.Context, s replica.Sim, r replica.Rep, key string, store *diskcache.SampleStore, ob *obs.Registry) (replica.Sample, error) {
	if store != nil && key != "" {
		if payload, ok := store.Get(key, r.Seed); ok {
			if sample, err := replica.DecodeSample(payload); err == nil {
				return sample, nil
			}
		}
	}
	var (
		simStart time.Time
		sp       obs.Span
	)
	if ob != nil {
		simStart = time.Now()
		if ob.Tracing() {
			sp = ob.StartSpan("simulate",
				obs.L("cell", strconv.Itoa(r.Cell)), obs.L("replica", strconv.Itoa(r.Replica)))
		}
	}
	sample, err := s.Simulate(ctx, r)
	if ob != nil {
		ob.Histogram("replica_simulate_seconds", obs.LatencyBuckets).Since(simStart)
		sp.End()
	}
	if err != nil {
		return replica.Sample{}, fmt.Errorf("cell %d replica %d (seed %d): %w", r.Cell, r.Replica, r.Seed, err)
	}
	if store != nil && key != "" {
		if payload, err := replica.EncodeSample(sample); err == nil {
			_ = store.Put(key, r.Seed, payload)
		}
	}
	return sample, nil
}

// reduceCells folds every cell's samples, timing each reduction into the
// replica_reduce_seconds histogram and a "reduce" span when ob is set.
func reduceCells(have [][]replica.Sample, ob *obs.Registry) []replica.Agg {
	reduceSeconds := ob.Histogram("replica_reduce_seconds", obs.LatencyBuckets)
	tracing := ob.Tracing()
	out := make([]replica.Agg, len(have))
	for i := range out {
		var (
			redStart time.Time
			sp       obs.Span
		)
		if ob != nil {
			redStart = time.Now()
			if tracing {
				sp = ob.StartSpan("reduce", obs.L("cell", strconv.Itoa(i)))
			}
		}
		out[i] = replica.Reduce(have[i])
		if ob != nil {
			reduceSeconds.Since(redStart)
			sp.End()
		}
	}
	return out
}
