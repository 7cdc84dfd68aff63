package sim

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
)

// Stopping configures sequential stopping: per cell, the replica count
// grows (doubling, bounded by MaxReplicas) until the 95% confidence
// half-width of the named scalar metric reaches Target. A zero Target or
// empty Metric disables stopping: every cell runs the fixed replica count.
type Stopping struct {
	// Metric is the scalar metric (a Sample.Values key, e.g.
	// replica.OnlinePerFile) whose confidence interval drives the stopping
	// rule. A cell that never emits the metric counts as converged, but a
	// run in which no cell emits it is an error: the name is wrong.
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

// sequential is the one stopping loop; RunRounds is its one caller. All
// cells start at replicas (at least 1; at least 2 with stop enabled, so a
// CI exists). Each round brings cell i to want[i] replicas (want must not
// be kept) and returns one Agg per cell; the cells whose CI95(stop.Metric)
// exceeds stop.Target then double, bounded by stop.MaxReplicas, until a
// round grows none. No cell reporting stop.Metric at all is an error.
func sequential(ctx context.Context, cells, replicas int, stop Stopping, round func(ctx context.Context, want []int) ([]replica.Agg, error)) ([]replica.Agg, error) {
	start, maxR := max(replicas, 1), max(replicas, 1)
	if stop.Enabled() {
		start = max(start, 2)
		maxR = max(stop.MaxReplicas, start)
	}
	want := make([]int, cells)
	for i := range want {
		want[i] = start
	}
	for first := true; ; first = false {
		aggs, err := round(ctx, want)
		if err != nil {
			return nil, err
		}
		if first && stop.Enabled() && !slices.ContainsFunc(aggs, func(a replica.Agg) bool {
			_, ok := a.Values[stop.Metric]
			return ok
		}) {
			return nil, fmt.Errorf("sim: no cell reports the stopping metric %q", stop.Metric)
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

// RunRounds is the one stopping executor. Each round is a spec of only the
// replicas it adds (count 0 for a cell that has stopped), which serve
// executes, returning the payloads in executable-cell order:
// runner.RunJobPayloads locally, a fabric campaign's Serve distributed.
// The samples are appended to the earlier rounds' and every cell is
// reduced over all of its replicas, timed into ob. The first round is the
// spec at the starting count, byte for byte what NewJobSpec builds.
func RunRounds(ctx context.Context, spec runner.JobSpec, stop Stopping, ob *obs.Registry, serve func(context.Context, runner.JobSpec) ([][]byte, error)) ([]replica.Agg, error) {
	p, _, err := specLayout(spec)
	if err == nil && (p.Replicas != nil || p.First != nil) {
		err = fmt.Errorf("sim: a stopping run starts every cell at replica 0 with one count")
	}
	if err != nil {
		return nil, err
	}
	have := make([][]replica.Sample, len(p.Cells))
	return sequential(ctx, len(p.Cells), spec.Replicas, stop, func(ctx context.Context, want []int) ([]replica.Agg, error) {
		next := JobParams{Cells: p.Cells, Replicas: make([]int, len(want)), First: make([]int, len(want))}
		for c, w := range want {
			next.First[c], next.Replicas[c] = len(have[c]), w-len(have[c])
		}
		r := 0
		if slices.Min(next.Replicas) == slices.Max(next.Replicas) {
			r, next.Replicas = next.Replicas[0], nil
		}
		if slices.Max(next.First) == 0 {
			next.First = nil
		}
		round, err := newSpec(next, spec.Seed, r)
		if err != nil {
			return nil, err
		}
		payloads, err := serve(ctx, round)
		if err != nil {
			return nil, err
		}
		drawn, err := samplesOf(round, payloads)
		if err != nil {
			return nil, err
		}
		for c := range have {
			have[c] = append(have[c], drawn[c]...)
		}
		return reduceCells(have, ob), nil
	})
}

// reduceCells is the one reduction: it folds every cell's samples, in
// replica order, timing each into replica_reduce_seconds and a "reduce"
// span when ob is set.
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
