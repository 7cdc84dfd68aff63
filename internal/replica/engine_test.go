package replica_test

// These tests drive the replica engine (internal/sim) through the contract
// alone — SimFunc backends, Rep seeds, Agg and Reduce — and so pin what
// the contract promises a backend: replica 0 at the base seed, reduction in
// replica order at any worker count, and samples that are drawn once.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mfdl/internal/replica"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/sim"
	"mfdl/internal/stats"
)

// run is the engine at a fixed replica count.
func run(ctx context.Context, cells int, s func(int) replica.Sim, opts sim.Options) ([]replica.Agg, error) {
	return sim.RunSequential(ctx, cells, s, opts, sim.Stopping{})
}

// echoSim emits deterministic metrics derived from the replica identity,
// so aggregation results can be predicted exactly.
func echoSim(cell int) replica.Sim {
	return replica.SimFunc(func(_ context.Context, r replica.Rep) (replica.Sample, error) {
		v := float64(r.Cell*1000 + r.Replica)
		var sum stats.Summary
		sum.Add(v)
		sum.Add(v + 1)
		return replica.Sample{
			Values:    map[string]float64{"v": v, "seedlo": float64(r.Seed % 997)},
			Counts:    map[string]float64{"n": 1, "cell": float64(r.Cell)},
			Summaries: map[string]stats.Summary{"s": sum},
		}, nil
	})
}

func TestRunAggregation(t *testing.T) {
	const cells, r = 3, 4
	aggs, err := run(context.Background(), cells, echoSim, sim.Options{Replicas: r, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != cells {
		t.Fatalf("got %d aggs, want %d", len(aggs), cells)
	}
	for c, agg := range aggs {
		if agg.Replicas != r {
			t.Errorf("cell %d: Replicas = %d, want %d", c, agg.Replicas, r)
		}
		// Values: the across-replica distribution of v = 1000c + j over
		// j = 0..3 has mean 1000c + 1.5, min 1000c, max 1000c + 3.
		v := agg.Values["v"]
		if v.N() != r {
			t.Errorf("cell %d: v.N = %d, want %d", c, v.N(), r)
		}
		wantMean := float64(1000*c) + 1.5
		if math.Abs(agg.Mean("v")-wantMean) > 1e-12 {
			t.Errorf("cell %d: mean %v, want %v", c, agg.Mean("v"), wantMean)
		}
		if v.Min() != float64(1000*c) || v.Max() != float64(1000*c+3) {
			t.Errorf("cell %d: min/max %v/%v, want %d/%d", c, v.Min(), v.Max(), 1000*c, 1000*c+3)
		}
		// CI95 of {0,1,2,3}: sd = sqrt(5/3), stderr = sd/2.
		wantCI := 1.959963984540054 * math.Sqrt(5.0/3.0) / 2
		if math.Abs(agg.CI95("v")-wantCI) > 1e-12 {
			t.Errorf("cell %d: CI95 %v, want %v", c, agg.CI95("v"), wantCI)
		}
		// Counts sum across replicas.
		if got := agg.Count("n"); got != r {
			t.Errorf("cell %d: count n = %v, want %d", c, got, r)
		}
		if got := agg.Count("cell"); got != float64(c*r) {
			t.Errorf("cell %d: count cell = %v, want %d", c, got, c*r)
		}
		// Summaries pool: 2 observations per replica.
		pooled := agg.Summary("s")
		if got := pooled.N(); got != 2*r {
			t.Errorf("cell %d: summary N = %d, want %d", c, got, 2*r)
		}
		// Missing keys read as zero values.
		if agg.Mean("absent") != 0 || agg.CI95("absent") != 0 || agg.Count("absent") != 0 {
			t.Errorf("cell %d: absent keys should aggregate to zero", c)
		}
	}
}

// TestRunWorkerCountInvariance is the engine's core guarantee: for fixed
// (seed, R), the reduction is bit-identical at any worker count.
func TestRunWorkerCountInvariance(t *testing.T) {
	runAt := func(workers int) []replica.Agg {
		t.Helper()
		aggs, err := run(context.Background(), 4, echoSim,
			sim.Options{Replicas: 5, Workers: workers, Seed: 1234})
		if err != nil {
			t.Fatal(err)
		}
		return aggs
	}
	want := runAt(1)
	for _, workers := range []int{2, 3, 8} {
		if got := runAt(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("workers=%d produced a different aggregation than workers=1", workers)
		}
	}
}

// TestRunReplicaZeroSeed checks the byte-compat linchpin: with R = 1 the
// only replica runs at the base seed itself.
func TestRunReplicaZeroSeed(t *testing.T) {
	const base = uint64(77)
	var got []uint64
	_, err := run(context.Background(), 3, func(int) replica.Sim {
		return replica.SimFunc(func(_ context.Context, r replica.Rep) (replica.Sample, error) {
			if r.Replica == 0 {
				got = append(got, r.Seed)
			}
			return replica.Sample{}, nil
		})
	}, sim.Options{Replicas: 1, Workers: 1, Seed: base})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s != base {
			t.Errorf("cell %d replica 0 ran at seed %d, want base %d", i, s, base)
		}
	}
}

func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := run(ctx, 1, echoSim, sim.Options{Replicas: -1}); err == nil {
		t.Error("negative Replicas accepted")
	}
	if _, err := run(ctx, -1, echoSim, sim.Options{}); err == nil {
		t.Error("negative cells accepted")
	}
	if _, err := run(ctx, 1, func(int) replica.Sim { return nil }, sim.Options{}); err == nil {
		t.Error("nil sim accepted")
	}
	if aggs, err := run(ctx, 0, echoSim, sim.Options{}); err != nil || aggs != nil {
		t.Errorf("0 cells: got (%v, %v), want (nil, nil)", aggs, err)
	}
	// A replica error is labeled with its (cell, replica, seed) and
	// propagated; the lowest flattened index wins.
	boom := errors.New("boom")
	_, err := run(ctx, 2, func(cell int) replica.Sim {
		return replica.SimFunc(func(_ context.Context, r replica.Rep) (replica.Sample, error) {
			if r.Cell == 1 && r.Replica == 2 {
				return replica.Sample{}, boom
			}
			return replica.Sample{}, nil
		})
	}, sim.Options{Replicas: 3, Workers: 1, Seed: 5})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if !strings.Contains(err.Error(), "cell 1 replica 2") {
		t.Errorf("error %q does not identify the failing replica", err)
	}
}

func TestRunContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := run(ctx, 2, echoSim, sim.Options{Replicas: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// Reduce over a cell's raw samples must equal the Agg the engine computes
// for the same cell — the equivalence that lets the fabric reduce shipped
// samples.
func TestReduceMatchesRun(t *testing.T) {
	const cells, r = 3, 4
	aggs, err := run(context.Background(), cells, echoSim, sim.Options{Replicas: r, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	seeds := replica.Seeds(11, cells, r)
	for c := 0; c < cells; c++ {
		samples := make([]replica.Sample, r)
		for j := 0; j < r; j++ {
			s, err := echoSim(c).Simulate(context.Background(),
				replica.Rep{Cell: c, Replica: j, Seed: seeds[c][j]})
			if err != nil {
				t.Fatal(err)
			}
			samples[j] = s
		}
		if got := replica.Reduce(samples); !reflect.DeepEqual(got, aggs[c]) {
			t.Errorf("cell %d: Reduce != Run agg", c)
		}
	}
}

// countingSim wraps a per-cell metric function and records every replica
// it actually simulates, so tests can assert exactly which (cell, replica)
// pairs were computed versus replayed.
type countingSim struct {
	mu    sync.Mutex
	runs  map[[2]int]int // (cell, replica) -> simulate invocations
	value func(cell, rep int) float64
}

func newCountingSim(value func(cell, rep int) float64) *countingSim {
	return &countingSim{runs: make(map[[2]int]int), value: value}
}

func (c *countingSim) sim(cell int) replica.Sim {
	return replica.SimFunc(func(_ context.Context, r replica.Rep) (replica.Sample, error) {
		c.mu.Lock()
		c.runs[[2]int{r.Cell, r.Replica}]++
		c.mu.Unlock()
		return replica.Sample{Values: map[string]float64{"m": c.value(r.Cell, r.Replica)}}, nil
	})
}

func (c *countingSim) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.runs {
		n += v
	}
	return n
}

// maxRuns returns the largest invocation count over all pairs — 1 means no
// pair was ever simulated twice.
func (c *countingSim) maxRuns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := 0
	for _, v := range c.runs {
		if v > m {
			m = v
		}
	}
	return m
}

// A disabled rule runs every cell at the fixed replica count, exactly as
// the zero rule does.
func TestSequentialDisabledEqualsRun(t *testing.T) {
	for _, stop := range []sim.Stopping{
		{Metric: "v"},             // no target
		{Target: 0.5},             // no metric
		{Metric: "v", Target: -1}, // non-positive target
	} {
		opts := sim.Options{Replicas: 3, Seed: 5}
		want, err := run(context.Background(), 4, echoSim, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunSequential(context.Background(), 4, echoSim, opts, stop)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stop=%+v: RunSequential != fixed-R run", stop)
		}
		if got[0].Replicas != 3 {
			t.Fatalf("stop=%+v: R = %d, want the fixed 3", stop, got[0].Replicas)
		}
	}
}

// Cells converge independently: a zero-variance cell stops at the starting
// replica count while a noisy cell doubles up to MaxReplicas, and no
// (cell, replica) pair is ever simulated twice across rounds.
func TestSequentialGrowsOnlyNoisyCells(t *testing.T) {
	cs := newCountingSim(func(cell, rep int) float64 {
		if cell == 0 {
			return 7 // constant: CI95 = 0 after the first round
		}
		return float64(100 * rep) // noisy: CI95 stays far above target
	})
	aggs, err := sim.RunSequential(context.Background(), 2, cs.sim,
		sim.Options{Replicas: 2, Seed: 3},
		sim.Stopping{Metric: "m", Target: 0.01, MaxReplicas: 8})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Replicas != 2 {
		t.Errorf("converged cell grew to R=%d, want 2", aggs[0].Replicas)
	}
	if aggs[1].Replicas != 8 {
		t.Errorf("noisy cell stopped at R=%d, want MaxReplicas=8", aggs[1].Replicas)
	}
	if cs.maxRuns() > 1 {
		t.Error("a replica was simulated more than once across rounds")
	}
	if got := cs.total(); got != 2+8 {
		t.Errorf("simulated %d replicas, want 10", got)
	}
	// A cell that never emits the metric counts as converged (CI95 of an
	// absent key is 0).
	if aggs[0].CI95("absent") != 0 {
		t.Error("absent metric should read as converged")
	}
}

// The start is raised to 2 (a CI needs at least two observations), and
// MaxReplicas below the start is raised to the start.
func TestSequentialStartFloor(t *testing.T) {
	cs := newCountingSim(func(cell, rep int) float64 { return float64(rep) })
	aggs, err := sim.RunSequential(context.Background(), 1, cs.sim,
		sim.Options{Replicas: 1, Seed: 3},
		sim.Stopping{Metric: "m", Target: 0.01, MaxReplicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Replicas != 2 || cs.total() != 2 {
		t.Fatalf("R = %d (%d sims), want 2 (2 sims)", aggs[0].Replicas, cs.total())
	}
}

// The sample-store contract: R grows, it never resamples. A second run
// over the same store — even one starting at a higher replica count —
// simulates only the replicas the store has not seen.
func TestSequentialReusesStoredSamples(t *testing.T) {
	store, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	value := func(cell, rep int) float64 {
		if cell == 0 {
			return 7
		}
		return float64(100 * rep)
	}
	key := func(cell int) string { return fmt.Sprintf("cell-%d", cell) }
	stop := sim.Stopping{Metric: "m", Target: 0.01, MaxReplicas: 8}

	first := newCountingSim(value)
	want, err := sim.RunSequential(context.Background(), 2, first.sim,
		sim.Options{Replicas: 2, Seed: 3, Samples: store, SampleKey: key}, stop)
	if err != nil {
		t.Fatal(err)
	}
	if first.total() != 10 || first.maxRuns() > 1 {
		t.Fatalf("first run simulated %d replicas (max %d per pair), want 10 distinct",
			first.total(), first.maxRuns())
	}

	// Identical re-run: every sample replays, nothing simulates, and the
	// aggregates are bit-identical to the first run's.
	second := newCountingSim(value)
	got, err := sim.RunSequential(context.Background(), 2, second.sim,
		sim.Options{Replicas: 2, Seed: 3, Samples: store, SampleKey: key}, stop)
	if err != nil {
		t.Fatal(err)
	}
	if second.total() != 0 {
		t.Errorf("re-run simulated %d replicas, want 0", second.total())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("replayed aggregates differ from computed ones")
	}

	// Growing the start to 4 only costs the converged cell its two missing
	// replicas; the noisy cell's 8 stored samples all replay.
	third := newCountingSim(value)
	if _, err := sim.RunSequential(context.Background(), 2, third.sim,
		sim.Options{Replicas: 4, Seed: 3, Samples: store, SampleKey: key}, stop); err != nil {
		t.Fatal(err)
	}
	if third.total() != 2 {
		t.Errorf("grown run simulated %d replicas, want 2 (cell 0, replicas 2..3)", third.total())
	}
	for pair, n := range third.runs {
		if pair[0] != 0 || pair[1] < 2 || n != 1 {
			t.Errorf("grown run simulated unexpected pair %v ×%d", pair, n)
		}
	}
}

func TestSequentialErrors(t *testing.T) {
	stop := sim.Stopping{Metric: "m", Target: 0.1, MaxReplicas: 4}
	if _, err := sim.RunSequential(context.Background(), 1, echoSim,
		sim.Options{Replicas: -1}, stop); err == nil {
		t.Error("negative Replicas accepted")
	}
	if _, err := sim.RunSequential(context.Background(), -1, echoSim,
		sim.Options{}, stop); err == nil {
		t.Error("negative cells accepted")
	}
	if _, err := sim.RunSequential(context.Background(), 1,
		func(int) replica.Sim { return nil }, sim.Options{}, stop); err == nil {
		t.Error("nil sim accepted")
	}
	if aggs, err := sim.RunSequential(context.Background(), 0, echoSim,
		sim.Options{}, stop); err != nil || len(aggs) != 0 {
		t.Errorf("zero cells: %v, %v", aggs, err)
	}
}
