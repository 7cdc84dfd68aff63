package replica_test

// These tests drive the one replica executor, sim.RunRounds, through the
// contract alone — SimFunc backends, Rep seeds, Agg and Reduce — and so pin
// what the contract promises a backend: replica 0 at the base seed,
// reduction in replica order at any worker count, and samples that are
// drawn once. Each round is served by serveWith, a fake executor built
// from sim.Reps that runs the round's replicas on SimFunc backends instead
// of on the simulators the spec names.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mfdl/internal/eventsim"
	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/rng"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/stats"
)

// flowCell is a small flow-level cell at correlation p; its tiny horizon
// keeps the tests that really simulate it fast.
func flowCell(p float64) sim.JobCell {
	return sim.JobCell{Scheme: scheme.SimMTSD, Config: sim.Config{Flow: &eventsim.Config{
		Params: fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5}, K: 2, Lambda0: 1, P: p,
		Horizon: 120, Warmup: 20,
	}}}
}

// spec is a sim-replica job of cells grid cells at seed and r replicas.
func spec(t *testing.T, cells int, seed uint64, r int) runner.JobSpec {
	t.Helper()
	jc := make([]sim.JobCell, cells)
	for i := range jc {
		jc[i] = flowCell(0.5 + 0.1*float64(i))
	}
	s, err := sim.NewJobSpec(jc, seed, r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// serveWith is a fake executor: it runs every replica a round names
// (sim.Reps) on s(cell) over one pool of workers and returns the encoded
// samples in executable-cell order, labelling an error with its replica.
func serveWith(s func(cell int) replica.Sim, workers int) func(context.Context, runner.JobSpec) ([][]byte, error) {
	return func(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
		reps, err := sim.Reps(round)
		if err != nil {
			return nil, err
		}
		grid, err := runner.Indexed("replica", len(reps))
		if err != nil {
			return nil, err
		}
		return runner.Run(ctx, grid, func(ctx context.Context, pt runner.Point, _ *rng.Source) ([]byte, error) {
			r := reps[pt.Index]
			sample, err := s(r.Cell).Simulate(ctx, r)
			if err != nil {
				return nil, fmt.Errorf("cell %d replica %d: %w", r.Cell, r.Replica, err)
			}
			return replica.EncodeSample(sample)
		}, runner.Options{Workers: workers})
	}
}

// rounds runs RunRounds over cells grid cells served by s.
func rounds(ctx context.Context, t *testing.T, cells int, s func(int) replica.Sim, seed uint64, r, workers int, stop sim.Stopping) ([]replica.Agg, error) {
	return sim.RunRounds(ctx, spec(t, cells, seed, r), stop, nil, serveWith(s, workers))
}

// run is the executor at a fixed replica count.
func run(ctx context.Context, t *testing.T, cells int, s func(int) replica.Sim, seed uint64, r, workers int) ([]replica.Agg, error) {
	return rounds(ctx, t, cells, s, seed, r, workers, sim.Stopping{})
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
	aggs, err := run(context.Background(), t, cells, echoSim, 9, r, 0)
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

// TestRunWorkerCountInvariance is the executor's core guarantee: for fixed
// (seed, R), the reduction is bit-identical at any worker count.
func TestRunWorkerCountInvariance(t *testing.T) {
	runAt := func(workers int) []replica.Agg {
		t.Helper()
		aggs, err := run(context.Background(), t, 4, echoSim, 1234, 5, workers)
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
	_, err := run(context.Background(), t, 3, func(int) replica.Sim {
		return replica.SimFunc(func(_ context.Context, r replica.Rep) (replica.Sample, error) {
			if r.Replica == 0 {
				got = append(got, r.Seed)
			}
			return replica.Sample{}, nil
		})
	}, base, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("ran %d replica-0 runs, want one per cell", len(got))
	}
	for i, s := range got {
		if s != base {
			t.Errorf("cell %d replica 0 ran at seed %d, want base %d", i, s, base)
		}
	}
}

// RunRounds refuses what is not the start of a stopping run, and a
// round's error — labelled by its executor — reaches the caller unchanged.
func TestRunErrors(t *testing.T) {
	ctx := context.Background()
	serve := serveWith(echoSim, 1)
	if _, err := sim.RunRounds(ctx, runner.JobSpec{Kind: "fluid-sweep"}, sim.Stopping{}, nil, serve); err == nil {
		t.Error("a spec of another kind accepted")
	}
	negative := spec(t, 1, 1, 1)
	negative.Replicas = -1
	if _, err := sim.RunRounds(ctx, negative, sim.Stopping{}, nil, serve); err == nil {
		t.Error("negative Replicas accepted")
	}
	p, err := sim.Params(spec(t, 2, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	p.Replicas = []int{1, 2}
	perCell := spec(t, 2, 1, 0)
	if perCell.Params, err = json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunRounds(ctx, perCell, sim.Stopping{}, nil, serve); err == nil {
		t.Error("a spec with per-cell counts accepted as a start")
	}
	if _, err := sim.NewJobSpec(nil, 1, 1); err == nil {
		t.Error("a job of no cells accepted")
	}
	boom := errors.New("boom")
	_, err = run(ctx, t, 2, func(cell int) replica.Sim {
		return replica.SimFunc(func(_ context.Context, r replica.Rep) (replica.Sample, error) {
			if r.Cell == 1 && r.Replica == 2 {
				return replica.Sample{}, boom
			}
			return replica.Sample{}, nil
		})
	}, 5, 3, 1)
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
	_, err := run(ctx, t, 2, echoSim, 0, 2, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// Reduce over a cell's raw samples, drawn at the SeedOf seeds, must equal
// the Agg the executor computes for the same cell — the equivalence that
// lets any executor reduce shipped samples.
func TestReduceMatchesRun(t *testing.T) {
	const cells, r = 3, 4
	aggs, err := run(context.Background(), t, cells, echoSim, 11, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cells; c++ {
		samples := make([]replica.Sample, r)
		for j := 0; j < r; j++ {
			s, err := echoSim(c).Simulate(context.Background(),
				replica.Rep{Cell: c, Replica: j, Seed: replica.SeedOf(11, c, j)})
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
		want, err := run(context.Background(), t, 4, echoSim, 5, 3, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rounds(context.Background(), t, 4, echoSim, 5, 3, 0, stop)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stop=%+v: RunRounds != fixed-R run", stop)
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
	aggs, err := rounds(context.Background(), t, 2, cs.sim, 3, 2, 0,
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
	aggs, err := rounds(context.Background(), t, 1, cs.sim, 3, 1, 0,
		sim.Stopping{Metric: "m", Target: 0.01, MaxReplicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if aggs[0].Replicas != 2 || cs.total() != 2 {
		t.Fatalf("R = %d (%d sims), want 2 (2 sims)", aggs[0].Replicas, cs.total())
	}
}

// The sample-store contract: R grows, it never resamples. Served by the
// job kind over a store, a run simulates each replica once; an identical
// re-run simulates nothing and reduces to the same aggregates; and a run
// allowed to grow further simulates only the replicas the store has not
// seen.
func TestSequentialReusesStoredSamples(t *testing.T) {
	store, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Real flow-level cells; a target no CI reaches grows both to the bound.
	job := spec(t, 2, 3, 2)
	runOnce := func(maxR int) ([]replica.Agg, uint64) {
		t.Helper()
		reg := obs.New()
		env := runner.JobEnv{Samples: store, Obs: reg}
		aggs, err := sim.RunRounds(context.Background(), job,
			sim.Stopping{Metric: replica.OnlinePerFile, Target: 1e-12, MaxReplicas: maxR}, nil,
			func(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
				return runner.RunJobPayloads(ctx, round, env, runner.Options{})
			})
		if err != nil {
			t.Fatal(err)
		}
		return aggs, reg.Histogram("replica_simulate_seconds", obs.LatencyBuckets).Count()
	}
	want, sims := runOnce(8)
	if sims != 16 || want[0].Replicas != 8 || want[1].Replicas != 8 {
		t.Fatalf("first run simulated %d replicas to R = %d, %d; want 16 to 8, 8",
			sims, want[0].Replicas, want[1].Replicas)
	}
	got, sims := runOnce(8)
	if sims != 0 {
		t.Errorf("re-run simulated %d replicas, want 0", sims)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("replayed aggregates differ from computed ones")
	}
	// Growing the bound to 16 costs each cell only replicas 8..15.
	if _, sims := runOnce(16); sims != 16 {
		t.Errorf("grown run simulated %d replicas, want 16 (replicas 8..15 of two cells)", sims)
	}
}

// RunRounds refuses a stopping metric that no cell reports: an absent key
// reads as CI95 0, so a misspelt name would otherwise stop every cell at
// the start.
func TestSequentialErrors(t *testing.T) {
	_, err := rounds(context.Background(), t, 2, echoSim, 1, 2, 0,
		sim.Stopping{Metric: "absent", Target: 0.1, MaxReplicas: 4})
	if err == nil || !strings.Contains(err.Error(), `"absent"`) {
		t.Errorf("misnamed stopping metric: err = %v, want one naming it", err)
	}
	if _, err := rounds(context.Background(), t, 2, echoSim, 1, 2, 0,
		sim.Stopping{Metric: "v", Target: 0.1, MaxReplicas: 4}); err != nil {
		t.Errorf("a metric the cells report: %v", err)
	}
}
