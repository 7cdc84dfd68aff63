// Package replica is the simulator contract: what a simulation backend
// implements and the replica engine (internal/sim) consumes. A backend
// reruns a fixed configuration at the seed it is given and reports each
// run as a Sample of named metrics, written under the standard keys by
// Outcome.Sample from the Outcome its user Ledger fills; it links neither
// the engine nor the worker pool nor the stores. Beside Sample and Sim the
// contract holds the sample codec (the bytes the sample store persists and
// the fabric carries), the seed derivation every executor shares, and
// Reduce, which folds a cell's samples into mean / 95% confidence interval
// / min / max per metric:
//
//	res, err := eventsim.Run(cfg) // cfg.Seed is the replica's seed
//	samples = append(samples, res.Sample())
//	agg := replica.Reduce(samples) // samples in replica order
//	mean, ci := agg.Mean(replica.OnlinePerFile), agg.CI95(replica.OnlinePerFile)
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
// Reduce folds samples in the order given over the sorted union of metric
// keys, so an executor that hands it a cell's samples in replica order
// gets the same aggregate no matter where or when they were drawn.
package replica

import (
	"context"
	"fmt"
	"sort"

	"mfdl/internal/rng"
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
	// Chunks counts chunk transfers (a Counts key the chunk-level
	// simulator adds to its Outcome's sample).
	Chunks = "chunks"
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

// Outcome is one simulator run in the contract's terms, filled by a
// Ledger. Both backends embed one in their Result, so Sample writes the key
// schema once.
type Outcome struct {
	// ArrivedUsers counts users arriving after warmup; CompletedUsers and
	// AbortedUsers those who left complete or by an injected abort before
	// the horizon (the rest are censored). SeedQuits counts injected
	// virtual-seed departures (CMFSD).
	ArrivedUsers, CompletedUsers, AbortedUsers, SeedQuits int
	// AvgOnlinePerFile (the paper's metric) and AvgDownloadPerFile are
	// Σ time / Σ files started over the counted departures, aborted ones
	// included as the fluid θ·x term charges them; NaN when none departed.
	AvgOnlinePerFile, AvgDownloadPerFile float64
	// MeanDownloaders and MeanSeeds are time-averaged populations.
	MeanDownloaders, MeanSeeds float64
	// FinalRho is the per-peer distribution of final allocation ratios
	// over the departures whose ρ the simulator counts (Departure.CountRho).
	FinalRho stats.Summary
	// Classes holds the file-count classes 1..K, Bandwidth the bandwidth
	// classes (flow level only).
	Classes, Bandwidth []Class
}

// Class is the statistics of one group of counted departures: a
// file-count class, keyed by ClassKey(Class, …), or a bandwidth class,
// keyed by BandwidthKey(Name, …). Completed counts full completions; the
// time summaries include aborted users.
type Class struct {
	Class                    int
	Name                     string
	Completed                int
	OnlineTime, DownloadTime stats.Summary
}

// Sample flattens the outcome under the standard keys: scalar aggregates,
// post-warmup counts, and the per-class and per-bandwidth-class summaries
// for pooled merging. A file-count class nobody completed and a bandwidth
// class nobody left are left out, so Reduce averages only the replicas
// that observed them.
func (o Outcome) Sample() Sample {
	s := Sample{
		Values: map[string]float64{
			OnlinePerFile:   o.AvgOnlinePerFile,
			DownloadPerFile: o.AvgDownloadPerFile,
			MeanDownloaders: o.MeanDownloaders,
			MeanSeeds:       o.MeanSeeds,
			FinalRho:        o.FinalRho.Mean(),
		},
		Counts: map[string]float64{
			Completed: float64(o.CompletedUsers),
			Arrived:   float64(o.ArrivedUsers),
			Aborted:   float64(o.AbortedUsers),
			SeedQuits: float64(o.SeedQuits),
		},
		Summaries: map[string]stats.Summary{
			FinalRho: o.FinalRho,
		},
	}
	for _, c := range o.Classes {
		if c.Completed == 0 {
			continue
		}
		s.Counts[ClassKey(c.Class, Completed)] = float64(c.Completed)
		s.Summaries[ClassKey(c.Class, OnlinePerFile)] = c.OnlineTime
		s.Summaries[ClassKey(c.Class, DownloadPerFile)] = c.DownloadTime
	}
	for _, b := range o.Bandwidth {
		if b.OnlineTime.N() == 0 {
			continue
		}
		s.Values[BandwidthKey(b.Name, OnlinePerFile)] = b.OnlineTime.Mean()
		s.Values[BandwidthKey(b.Name, DownloadPerFile)] = b.DownloadTime.Mean()
		s.Counts[BandwidthKey(b.Name, Completed)] = float64(b.Completed)
		s.Summaries[BandwidthKey(b.Name, OnlinePerFile)] = b.OnlineTime
		s.Summaries[BandwidthKey(b.Name, DownloadPerFile)] = b.DownloadTime
	}
	return s
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

// Sim runs one independently seeded replica of a simulation: it reruns a
// fixed configuration at r.Seed. The engine may call Simulate
// concurrently, so implementations treat their configuration as
// immutable.
type Sim interface {
	Simulate(ctx context.Context, r Rep) (Sample, error)
}

// SimFunc adapts a function to Sim.
type SimFunc func(ctx context.Context, r Rep) (Sample, error)

// Simulate implements Sim.
func (f SimFunc) Simulate(ctx context.Context, r Rep) (Sample, error) {
	return f(ctx, r)
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

// Reduce folds one cell's samples, in replica order, into an Agg — the one
// reduction every executor applies, so samples gathered through any route
// (in memory, the sample store, the distributed fabric) produce
// numerically identical aggregates. Iteration is over the sorted union of
// keys so the reduction itself is deterministic regardless of map layout.
func Reduce(samples []Sample) Agg {
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
