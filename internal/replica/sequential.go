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

// RunSequential is the engine's one loop. Every cell starts at the
// configured replica count; with stop enabled the start is at least 2, so
// a CI exists, and after each round the cells whose CI95(stop.Metric)
// still exceeds stop.Target double their replica count — bounded by
// stop.MaxReplicas — and only the missing replicas are simulated. With
// stop disabled there is exactly one round (see Run). Because replica
// seeds are a pure function of (base seed, cell, replica index) and
// samples are reduced in replica order, the result is byte-identical at
// any worker count, and with a sample store attached (Options.Samples)
// every round — and every later re-run — reuses the samples already drawn.
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
	start, maxR := opts.replicas(), opts.replicas()
	if stop.Enabled() {
		start = max(start, 2)
		maxR = max(stop.MaxReplicas, start)
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
	want := make([]int, cells)
	for i := range want {
		want[i] = start
	}
	for {
		// The work list enumerates missing (cell, replica) pairs in
		// (cell, replica) order, so appending round results keeps every
		// cell's samples in replica order — the order reduce requires.
		var work []pair
		for i := 0; i < cells; i++ {
			for j := len(have[i]); j < want[i]; j++ {
				work = append(work, pair{cell: i, rep: j})
			}
		}
		if len(work) > 0 {
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
		}
		grew := false
		for i := range have {
			if want[i] < maxR && reduce(have[i]).CI95(stop.Metric) > stop.Target {
				want[i] = min(2*want[i], maxR)
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	ob := opts.Obs
	reduceSeconds := ob.Histogram("replica_reduce_seconds", obs.LatencyBuckets)
	tracing := ob.Tracing()
	out := make([]Agg, cells)
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
	return out, nil
}
