package replica

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/rng"
	"mfdl/internal/runner"
)

// Stopping configures sequential stopping: per cell, the replica count
// grows (doubling, bounded by MaxReplicas) until the 95% confidence
// half-width of the named scalar metric reaches Target. A zero Target or
// empty Metric disables stopping: every cell runs the fixed replica count,
// which is Run.
type Stopping struct {
	// Metric is the scalar metric (a Sample.Values key, e.g.
	// OnlinePerFile) whose confidence interval drives the stopping rule. A
	// cell that never emits the metric counts as converged.
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

// Round runs one round of a sequential-stopping campaign: every cell i must
// end the round with want[i] replicas (replica indices [0, want[i])), and
// the round returns one Agg per cell reduced over exactly those replicas.
// want belongs to the caller and changes between rounds; a Round must not
// keep it.
type Round func(ctx context.Context, want []int) ([]Agg, error)

// Sequential is the one stopping loop; every executor supplies only its
// Round. All cells start at replicas (at least 1; at least 2 with stop
// enabled, so a CI exists); after each round the cells whose
// CI95(stop.Metric) still exceeds stop.Target double their count, bounded
// by stop.MaxReplicas. It returns the aggregates of the first round in
// which no cell grew — with stop disabled, the only round.
func Sequential(ctx context.Context, cells, replicas int, stop Stopping, round Round) ([]Agg, error) {
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
		aggs, err := round(ctx, want)
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

// RunSequential runs Sequential in memory: a round simulates, over one
// bounded worker pool, only the (cell, replica) pairs no earlier round
// drew. Replica seeds are a pure function of (base seed, cell, replica)
// and samples are reduced in replica order, so the result is byte-
// identical at any worker count; a sample store (Options.Samples) lets
// every round and re-run reuse drawn samples. Stop disabled, this is Run.
func RunSequential(ctx context.Context, cells int, sim func(cell int) Sim, opts Options, stop Stopping) ([]Agg, error) {
	if opts.Replicas < 0 {
		return nil, fmt.Errorf("replica: Replicas = %d must be >= 0", opts.Replicas)
	}
	if cells < 0 {
		return nil, fmt.Errorf("replica: cells = %d must be >= 0", cells)
	}
	if cells == 0 {
		return nil, ctx.Err()
	}
	sims := make([]Sim, cells)
	for i := range sims {
		sims[i] = sim(i)
		if sims[i] == nil {
			return nil, fmt.Errorf("replica: sim(%d) returned nil", i)
		}
	}
	type pair struct{ cell, rep int }
	have := make([][]Sample, cells)
	return Sequential(ctx, cells, opts.Replicas, stop, func(ctx context.Context, want []int) ([]Agg, error) {
		// The work list enumerates missing (cell, replica) pairs in
		// (cell, replica) order, so appending round results keeps every
		// cell's samples in replica order — the order reduce requires.
		var work []pair
		for i := range want {
			for j := len(have[i]); j < want[i]; j++ {
				work = append(work, pair{cell: i, rep: j})
			}
		}
		seeds := Seeds(opts.Seed, cells, slices.Max(want))
		grid, err := runner.Indexed("job", len(work))
		if err != nil {
			return nil, err
		}
		samples, err := runner.Run(ctx, grid,
			func(ctx context.Context, pt runner.Point, _ *rng.Source) (Sample, error) {
				p := work[pt.Index]
				return simulateOne(ctx, sims[p.cell],
					Rep{Cell: p.cell, Replica: p.rep, Seed: seeds[p.cell][p.rep]}, opts)
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

// reduceCells folds every cell's samples, timing each reduction into the
// replica_reduce_seconds histogram and a "reduce" span when ob is set.
func reduceCells(have [][]Sample, ob *obs.Registry) []Agg {
	reduceSeconds := ob.Histogram("replica_reduce_seconds", obs.LatencyBuckets)
	tracing := ob.Tracing()
	out := make([]Agg, len(have))
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
		out[i] = reduce(have[i])
		if ob != nil {
			reduceSeconds.Since(redStart)
			sp.End()
		}
	}
	return out
}
