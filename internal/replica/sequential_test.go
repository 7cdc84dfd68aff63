package replica

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"mfdl/internal/runner/diskcache"
	"mfdl/internal/stats"
)

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

func (c *countingSim) sim(cell int) Sim {
	return SimFunc(func(_ context.Context, r Rep) (Sample, error) {
		c.mu.Lock()
		c.runs[[2]int{r.Cell, r.Replica}]++
		c.mu.Unlock()
		return Sample{Values: map[string]float64{"m": c.value(r.Cell, r.Replica)}}, nil
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

// A disabled rule makes RunSequential literally Run.
func TestSequentialDisabledEqualsRun(t *testing.T) {
	for _, stop := range []Stopping{
		{},
		{Metric: "v"},             // no target
		{Target: 0.5},             // no metric
		{Metric: "v", Target: -1}, // non-positive target
	} {
		opts := Options{Replicas: 3, Seed: 5}
		want, err := Run(context.Background(), 4, echoSim, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSequential(context.Background(), 4, echoSim, opts, stop)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stop=%+v: RunSequential != Run", stop)
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
	aggs, err := RunSequential(context.Background(), 2, cs.sim,
		Options{Replicas: 2, Seed: 3},
		Stopping{Metric: "m", Target: 0.01, MaxReplicas: 8})
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
	aggs, err := RunSequential(context.Background(), 1, cs.sim,
		Options{Replicas: 1, Seed: 3},
		Stopping{Metric: "m", Target: 0.01, MaxReplicas: 1})
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
	stop := Stopping{Metric: "m", Target: 0.01, MaxReplicas: 8}

	first := newCountingSim(value)
	want, err := RunSequential(context.Background(), 2, first.sim,
		Options{Replicas: 2, Seed: 3, Samples: store, SampleKey: key}, stop)
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
	got, err := RunSequential(context.Background(), 2, second.sim,
		Options{Replicas: 2, Seed: 3, Samples: store, SampleKey: key}, stop)
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
	if _, err := RunSequential(context.Background(), 2, third.sim,
		Options{Replicas: 4, Seed: 3, Samples: store, SampleKey: key}, stop); err != nil {
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
	stop := Stopping{Metric: "m", Target: 0.1, MaxReplicas: 4}
	if _, err := RunSequential(context.Background(), 1, echoSim,
		Options{Replicas: -1}, stop); err == nil {
		t.Error("negative Replicas accepted")
	}
	if _, err := RunSequential(context.Background(), -1, echoSim,
		Options{}, stop); err == nil {
		t.Error("negative cells accepted")
	}
	if _, err := RunSequential(context.Background(), 1,
		func(int) Sim { return nil }, Options{}, stop); err == nil {
		t.Error("nil sim accepted")
	}
	if aggs, err := RunSequential(context.Background(), 0, echoSim,
		Options{}, stop); err != nil || len(aggs) != 0 {
		t.Errorf("zero cells: %v, %v", aggs, err)
	}
}

// Sequential drives any Round: each round's per-cell counts follow from the
// previous round's aggregates alone, a disabled rule runs exactly one
// round, and a round's error ends the loop.
func TestSequentialDrivesRounds(t *testing.T) {
	var seen [][]int
	round := func(_ context.Context, want []int) ([]Agg, error) {
		seen = append(seen, slices.Clone(want))
		aggs := make([]Agg, len(want))
		for i, r := range want {
			var s stats.Summary
			for j := 0; j < r; j++ {
				s.Add(float64(i * j)) // cell 0 constant, cell 1 noisy
			}
			aggs[i] = Agg{Replicas: r, Values: map[string]stats.Summary{"m": s}}
		}
		return aggs, nil
	}
	aggs, err := Sequential(context.Background(), 2, 1, Stopping{Metric: "m", Target: 0.01, MaxReplicas: 8}, round)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{2, 2}, {2, 4}, {2, 8}}; !reflect.DeepEqual(seen, want) {
		t.Errorf("rounds asked for %v, want %v", seen, want)
	}
	if aggs[0].Replicas != 2 || aggs[1].Replicas != 8 {
		t.Errorf("returned R = %d, %d; want the last round's 2, 8", aggs[0].Replicas, aggs[1].Replicas)
	}
	seen = nil
	if _, err := Sequential(context.Background(), 2, 3, Stopping{}, round); err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{3, 3}}; !reflect.DeepEqual(seen, want) {
		t.Errorf("disabled rule ran rounds %v, want %v", seen, want)
	}
	boom := errors.New("boom")
	if _, err := Sequential(context.Background(), 1, 1, Stopping{}, func(context.Context, []int) ([]Agg, error) {
		return nil, boom
	}); err != boom {
		t.Errorf("round error = %v, want it returned", err)
	}
}
