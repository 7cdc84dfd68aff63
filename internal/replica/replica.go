// Package replica is the replica engine behind every simulator-backed
// number in the repository: it fans R independently seeded replicas of
// each simulation cell out over the runner's worker pool and reduces the
// per-replica samples into mean / 95% confidence interval / min / max per
// metric.
//
// A single simulation trajectory is one draw from the stochastic system,
// so a fluid-vs-simulation comparison based on it has no error bars. The
// engine turns any seedable simulation — anything implementing Sim, which
// both internal/eventsim and internal/swarm do — into a replicated
// estimate:
//
//	aggs, err := replica.Run(ctx, len(specs), func(cell int) replica.Sim {
//	    cfg := ... // the cell's simulator configuration
//	    return eventsim.Sim{Config: cfg}
//	}, replica.Options{Replicas: 8, Seed: 1})
//	mean := aggs[0].Mean(replica.OnlinePerFile)
//	ci   := aggs[0].CI95(replica.OnlinePerFile)
//
// # One path
//
// The engine has one stopping loop, Sequential, which sets each round's
// per-cell replica counts and leaves the round to its caller:
// RunSequential's in memory (Run is its fixed-R case), internal/sim's
// RunRounds' as a spec served through the runner pool or a fabric
// campaign. Every replica, whoever asks for it, is computed by
// SimulateStored, and every cell is folded by Reduce. Experiments do not
// call the engine directly: they lower their grids to the sim-replica job
// kind, whose cells call SimulateStored one (cell, replica) at a time —
// locally, from a checkpoint or on a fabric worker. The one direct caller
// left is the flash-crowd transient, whose replicas return traces no job
// payload carries.
//
// # Seed derivation
//
// Replica seeds are a pure function of (base seed, cell index, replica
// index), untouched by scheduling or worker count:
//
//   - cell i owns the i-th Split of the base seed's stream (the same
//     scheme internal/runner uses for per-cell streams);
//   - replica 0 of every cell runs at the base seed itself, so R = 1
//     reproduces the unreplicated run byte-for-byte;
//   - replica j >= 1 runs at the j-th Uint64 drawn from the cell's split
//     stream.
//
// Growing R therefore extends a smaller run: the first replicas of an
// R = 8 run are seeded identically to an R = 4 run.
//
// # Determinism
//
// All cells × replicas execute on one bounded runner pool; samples are
// reduced in (cell, replica) order with sorted metric keys, so the output
// is byte-identical at any worker count for fixed (seed, R).
package replica

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/rng"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/stats"
)

// Standard metric keys the simulators emit. Experiments address aggregate
// metrics by these names instead of reaching into simulator result
// structs.
const (
	// OnlinePerFile is the paper's headline metric: average online time
	// (rounds, for the chunk-level simulator) per requested file.
	OnlinePerFile = "online_per_file"
	// DownloadPerFile is the same aggregation over pure download time.
	DownloadPerFile = "download_per_file"
	// MeanDownloaders / MeanSeeds are time-averaged populations.
	MeanDownloaders = "mean_downloaders"
	MeanSeeds       = "mean_seeds"
	// FinalRho is the mean final allocation ratio of CMFSD peers (as a
	// value: the per-run mean; as a summary: the per-peer distribution).
	FinalRho = "final_rho"
	// Completed and Arrived are post-warmup user counts (Counts keys).
	Completed = "completed"
	Arrived   = "arrived"
	// Aborted and SeedQuits count fault-injected churn events (Counts
	// keys): users who left mid-download and virtual seeds that quit.
	Aborted   = "aborted"
	SeedQuits = "seed_quits"
)

// ClassKey names a per-class metric, e.g. ClassKey(3, OnlinePerFile).
func ClassKey(class int, metric string) string {
	return fmt.Sprintf("class/%d/%s", class, metric)
}

// BandwidthKey names a per-bandwidth-class metric.
func BandwidthKey(name, metric string) string {
	return fmt.Sprintf("bw/%s/%s", name, metric)
}

// Sample is one replica's output: named scalar metrics (one number per
// replica — the engine reports their across-replica distribution), counts
// (summed across replicas) and within-run summaries (merged across
// replicas via stats.Summary.Merge).
type Sample struct {
	Values    map[string]float64
	Counts    map[string]float64
	Summaries map[string]stats.Summary
}

// Rep identifies one replica of one cell together with its derived seed.
type Rep struct {
	// Cell is the cell index in [0, cells).
	Cell int
	// Replica is the replica index in [0, R).
	Replica int
	// Seed is the replica's simulator seed under the package's seed-
	// derivation scheme.
	Seed uint64
}

// Sim runs one independently seeded replica of a simulation. The
// implementations in internal/eventsim and internal/swarm rerun a fixed
// configuration at the given seed.
type Sim interface {
	Simulate(ctx context.Context, r Rep) (Sample, error)
}

// SimFunc adapts a function to Sim.
type SimFunc func(ctx context.Context, r Rep) (Sample, error)

// Simulate implements Sim.
func (f SimFunc) Simulate(ctx context.Context, r Rep) (Sample, error) {
	return f(ctx, r)
}

// Options configure one engine run (Run or RunSequential).
type Options struct {
	// Replicas is R, the number of independently seeded replicas per
	// cell; 0 means 1. Negative values are an error.
	Replicas int
	// Workers bounds the shared worker pool; <= 0 means all cores.
	Workers int
	// Seed is the base seed of the derivation scheme.
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
	// appends seeds (see Seeds), a re-run with a larger replica count
	// reuses every earlier sample — R grows, it never resamples.
	Samples *diskcache.SampleStore
	// SampleKey names cell's sample-store identity: everything that
	// determines the cell's samples except the seed (typically a
	// fingerprint of the simulator configuration). Required for Samples to
	// take effect.
	SampleKey func(cell int) string
}

// replicas normalizes the replica count.
func (o Options) replicas() int {
	if o.Replicas <= 0 {
		return 1
	}
	return o.Replicas
}

// Agg is the reduction of one cell's R replica samples.
type Agg struct {
	// Replicas is the number of samples reduced.
	Replicas int
	// Values holds, per scalar metric, the across-replica distribution:
	// N = R, and Mean/CI95/Min/Max estimate the metric with error bars.
	Values map[string]stats.Summary
	// Counts holds the across-replica sums of the counting metrics.
	Counts map[string]float64
	// Summaries holds the within-run summaries pooled over all replicas.
	Summaries map[string]stats.Summary
}

// Value returns the across-replica distribution of a scalar metric (the
// zero Summary when the metric was never emitted).
func (a Agg) Value(key string) stats.Summary { return a.Values[key] }

// Mean returns the across-replica mean of a scalar metric.
func (a Agg) Mean(key string) float64 {
	s := a.Values[key]
	return s.Mean()
}

// CI95 returns the half-width of the 95% confidence interval of a scalar
// metric's mean (0 when R < 2).
func (a Agg) CI95(key string) float64 {
	s := a.Values[key]
	return s.CI95()
}

// Count returns the across-replica sum of a counting metric.
func (a Agg) Count(key string) float64 { return a.Counts[key] }

// Summary returns the pooled within-run summary of a metric.
func (a Agg) Summary(key string) stats.Summary { return a.Summaries[key] }

// Seeds returns the replica seeds of every cell under base: element
// [i][j] seeds replica j of cell i. The scheme is documented in the
// package comment (and DESIGN.md); in particular [i][0] == base for every
// cell, and for fixed base the first columns do not move as r grows.
func Seeds(base uint64, cells, r int) [][]uint64 {
	if cells < 0 || r < 1 {
		panic(fmt.Sprintf("replica: Seeds(cells=%d, r=%d)", cells, r))
	}
	parent := rng.New(base)
	out := make([][]uint64, cells)
	for i := range out {
		src := parent.Split()
		out[i] = make([]uint64, r)
		out[i][0] = base
		for j := 1; j < r; j++ {
			out[i][j] = src.Uint64()
		}
	}
	return out
}

// Run executes R replicas of each of cells simulations over one bounded
// worker pool and reduces each cell's samples into an Agg: the fixed-R
// case of RunSequential. sim is called once per cell (serially, before any
// replica starts) to obtain the cell's simulator; the same Sim value then
// receives all R Simulate calls, possibly concurrently, so implementations
// must treat their configuration as immutable.
//
// The result is indexed like the cells and byte-identical at any worker
// count. The first error (by flattened (cell, replica) index) cancels the
// remaining replicas and is returned.
func Run(ctx context.Context, cells int, sim func(cell int) Sim, opts Options) ([]Agg, error) {
	return RunSequential(ctx, cells, sim, opts, Stopping{})
}

// simulateOne runs — or replays from the sample store — one replica of one
// cell: the single path the engine and the sim-replica job kind (via
// SimulateStored) share, so a sample is computed the same way no matter
// which executor asked for it.
func simulateOne(ctx context.Context, s Sim, r Rep, opts Options) (Sample, error) {
	key := ""
	if opts.Samples != nil && opts.SampleKey != nil {
		key = opts.SampleKey(r.Cell)
	}
	return SimulateStored(ctx, s, r, key, opts.Samples, opts.Obs)
}

// SimulateStored runs one replica through the sample store: a stored
// sample under (key, r.Seed) is decoded and returned without simulating;
// otherwise the simulation runs and its encoded sample is persisted
// (best-effort) before returning. An empty key or nil store disables the
// store entirely. A stored payload that fails to decode — corrupt, or
// written under another sample schema — reads as a miss and is recomputed.
func SimulateStored(ctx context.Context, s Sim, r Rep, key string, store *diskcache.SampleStore, ob *obs.Registry) (Sample, error) {
	if store != nil && key != "" {
		if payload, ok := store.Get(key, r.Seed); ok {
			if sample, err := DecodeSample(payload); err == nil {
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
		return Sample{}, fmt.Errorf("cell %d replica %d (seed %d): %w", r.Cell, r.Replica, r.Seed, err)
	}
	if store != nil && key != "" {
		if payload, err := EncodeSample(sample); err == nil {
			_ = store.Put(key, r.Seed, payload)
		}
	}
	return sample, nil
}

// reduce folds one cell's samples, in replica order, into an Agg.
// Iteration is over the sorted union of keys so the reduction itself is
// deterministic regardless of map layout.
func reduce(samples []Sample) Agg {
	agg := Agg{
		Replicas:  len(samples),
		Values:    map[string]stats.Summary{},
		Counts:    map[string]float64{},
		Summaries: map[string]stats.Summary{},
	}
	for _, key := range keyUnion(samples, func(s Sample) map[string]float64 { return s.Values }) {
		var sum stats.Summary
		for _, s := range samples {
			if v, ok := s.Values[key]; ok {
				sum.Add(v)
			}
		}
		agg.Values[key] = sum
	}
	for _, key := range keyUnion(samples, func(s Sample) map[string]float64 { return s.Counts }) {
		total := 0.0
		for _, s := range samples {
			total += s.Counts[key]
		}
		agg.Counts[key] = total
	}
	for _, key := range keyUnion(samples, func(s Sample) map[string]stats.Summary { return s.Summaries }) {
		var merged stats.Summary
		for _, s := range samples {
			if o, ok := s.Summaries[key]; ok {
				merged.Merge(&o)
			}
		}
		agg.Summaries[key] = merged
	}
	return agg
}

// keyUnion returns the sorted union of the map keys across samples.
func keyUnion[V any](samples []Sample, get func(Sample) map[string]V) []string {
	seen := map[string]bool{}
	var keys []string
	for _, s := range samples {
		for k := range get(s) {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
