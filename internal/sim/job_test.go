package sim

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// testJobCells builds a fast two-cell flow-level grid (p = 0.5, 0.9).
func testJobCells(t *testing.T) []JobCell {
	t.Helper()
	mk := func(p float64) JobCell {
		cfg := *flowConfig()
		cfg.Horizon = 120
		cfg.Warmup = 20
		cfg.P = p
		return JobCell{Scheme: scheme.SimMTCD, Config: Config{Flow: &cfg}}
	}
	return []JobCell{mk(0.5), mk(0.9)}
}

func testJobSpec(t *testing.T, seed uint64, replicas int) runner.JobSpec {
	t.Helper()
	spec, err := NewJobSpec(testJobCells(t), seed, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// NewJobSpec normalizes every cell — embedded seed zeroed, embedded scheme
// aligned to the cell's — without touching the caller's config, and frames
// the degenerate "cell" axis over the configurations.
func TestNewJobSpecNormalizes(t *testing.T) {
	cfg := *flowConfig()
	cfg.Seed = 99                // engine-derived: must be zeroed
	cfg.Scheme = scheme.SimCMFSD // cell's scheme is authoritative
	cells := []JobCell{{Scheme: scheme.SimMTCD, Config: Config{Flow: &cfg}}}
	spec, err := NewJobSpec(cells, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 99 || cfg.Scheme != scheme.SimCMFSD {
		t.Error("NewJobSpec mutated the caller's config")
	}
	if spec.Kind != JobKindSimReplica || spec.Seed != 7 || spec.Replicas != 3 {
		t.Fatalf("spec header %+v", spec)
	}
	if len(spec.Dims) != 1 || spec.Dims[0].Name != "cell" || len(spec.Dims[0].Values) != 1 {
		t.Fatalf("dims %+v, want single cell axis", spec.Dims)
	}
	p, err := Params(spec)
	if err != nil {
		t.Fatal(err)
	}
	norm := p.Cells[0].Config.Flow
	if norm.Seed != 0 || norm.Scheme != scheme.SimMTCD {
		t.Errorf("normalized cell carries seed %d scheme %v, want 0 / MTCD", norm.Seed, norm.Scheme)
	}
	if !strings.Contains(spec.Fingerprint(), "params=sha256:") {
		t.Errorf("fingerprint %q lacks the params digest", spec.Fingerprint())
	}
}

// Equal configurations key identically no matter the grid position or base
// seed; different configurations never share a key.
func TestJobCellSampleKeyIdentity(t *testing.T) {
	a := testJobSpec(t, 1, 2)
	b := testJobSpec(t, 999, 8) // different seed and R: same configs
	pa, _ := Params(a)
	pb, _ := Params(b)
	for i := range pa.Cells {
		ka, err := pa.Cells[i].SampleKey()
		if err != nil {
			t.Fatal(err)
		}
		kb, err := pb.Cells[i].SampleKey()
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb {
			t.Errorf("cell %d keys differ across specs:\n%s\n%s", i, ka, kb)
		}
	}
	k0, _ := pa.Cells[0].SampleKey()
	k1, _ := pa.Cells[1].SampleKey()
	if k0 == k1 {
		t.Error("distinct configurations share a sample key")
	}
}

func TestNewJobSpecErrors(t *testing.T) {
	good := testJobCells(t)
	if _, err := NewJobSpec(nil, 1, 1); err == nil {
		t.Error("no cells accepted")
	}
	if _, err := NewJobSpec(good, 1, -1); err == nil {
		t.Error("negative replicas accepted")
	}
	if _, err := NewJobSpec([]JobCell{{Scheme: scheme.SimMTCD}}, 1, 1); err == nil {
		t.Error("cell with no simulator accepted")
	}
	both := good[0]
	both.Config.Chunk = chunkConfig()
	if _, err := NewJobSpec([]JobCell{both}, 1, 1); err == nil {
		t.Error("cell with both simulators accepted")
	}
}

// Hand-built specs that dodge NewJobSpec's normalization are rejected by
// Validate — the same gate ParseJobSpec, the coordinator and every worker
// apply before executing anything.
func TestValidateJobRejections(t *testing.T) {
	base := testJobSpec(t, 7, 2)
	reparams := func(t *testing.T, spec runner.JobSpec, mutate func(*JobParams)) runner.JobSpec {
		t.Helper()
		p, err := Params(spec)
		if err != nil {
			t.Fatal(err)
		}
		mutate(&p)
		data, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		spec.Params = data
		return spec
	}
	cases := []struct {
		name string
		spec runner.JobSpec
		want string
	}{
		{"embedded-seed", reparams(t, base, func(p *JobParams) {
			cfg := *p.Cells[0].Config.Flow
			cfg.Seed = 5
			p.Cells[0].Config.Flow = &cfg
		}), "embeds seed"},
		{"embedded-scheme", reparams(t, base, func(p *JobParams) {
			cfg := *p.Cells[0].Config.Flow
			cfg.Scheme = scheme.SimCMFSD
			p.Cells[0].Config.Flow = &cfg
		}), "scheme"},
		{"cell-count", reparams(t, base, func(p *JobParams) {
			p.Cells = p.Cells[:1]
		}), "params carry"},
		{"no-cells", reparams(t, base, func(p *JobParams) {
			p.Cells = nil
		}), "no cells"},
		{"bad-params", func() runner.JobSpec {
			s := base
			s.Params = []byte("{")
			return s
		}(), "job params"},
	}
	wrongAxis := base
	wrongAxis.Dims = []runner.Dim{{Name: "p", Values: []float64{0, 1}}}
	cases = append(cases, struct {
		name string
		spec runner.JobSpec
		want string
	}{"wrong-axis", wrongAxis, "cell"})
	shifted := base
	shifted.Dims = []runner.Dim{{Name: "cell", Values: []float64{0, 5}}}
	cases = append(cases, struct {
		name string
		spec runner.JobSpec
		want string
	}{"shifted-axis", shifted, "axis value"})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.spec.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestParamsWrongKind(t *testing.T) {
	spec := testJobSpec(t, 1, 1)
	spec.Kind = "fluid-sweep"
	if _, err := Params(spec); err == nil {
		t.Error("Params accepted a foreign kind")
	}
}

// The job route is the replica engine: RunJob over a spec equals the
// engine's fixed-R run over the same simulators, bit for bit.
func TestRunJobMatchesReplicaRun(t *testing.T) {
	spec := testJobSpec(t, 9, 3)
	got, err := RunJob(context.Background(), spec, runner.JobEnv{}, runner.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Params(spec)
	if err != nil {
		t.Fatal(err)
	}
	sims := make([]replica.Sim, len(p.Cells))
	for i, c := range p.Cells {
		if sims[i], err = New(c.Scheme, c.Config); err != nil {
			t.Fatal(err)
		}
	}
	want, err := RunSequential(context.Background(), len(p.Cells),
		func(cell int) replica.Sim { return sims[cell] },
		Options{Replicas: 3, Seed: 9, Workers: 2}, Stopping{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunJob != the engine's fixed-R run")
	}
}

// R = 1 is the unreplicated golden: every aggregate is exactly the single
// sample the simulator produces under the base seed.
func TestRunJobR1MatchesUnreplicated(t *testing.T) {
	spec := testJobSpec(t, 4, 1)
	aggs, err := RunJob(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Params(spec)
	if err != nil {
		t.Fatal(err)
	}
	for cell, c := range p.Cells {
		s, err := New(c.Scheme, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := s.Simulate(context.Background(),
			replica.Rep{Cell: cell, Replica: 0, Seed: spec.Seed})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range direct.Values {
			if got := aggs[cell].Mean(k); math.Float64bits(got) != math.Float64bits(v) &&
				!(math.IsNaN(got) && math.IsNaN(v)) {
				t.Errorf("cell %d value %q: %v, want unreplicated %v", cell, k, got, v)
			}
		}
	}
}

// A sample store turns the second identical run into pure replay.
func TestRunJobReusesStoredSamples(t *testing.T) {
	store, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	store.WithObs(reg)
	hits, stores := reg.Counter("samplestore_hits_total"), reg.Counter("samplestore_stores_total")
	spec := testJobSpec(t, 2, 2)
	env := runner.JobEnv{Samples: store}
	want, err := RunJob(context.Background(), spec, env, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := stores.Value(); n != 4 { // 2 cells × 2 replicas
		t.Fatalf("first run stored %d samples, want 4", n)
	}
	hitsBefore := hits.Value()
	got, err := RunJob(context.Background(), spec, env, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h, n := hits.Value()-hitsBefore, stores.Value(); h != 4 || n != 4 {
		t.Fatalf("re-run hits %d stores %d, want 4 replays and no new stores", h, n-4)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed aggregates differ")
	}
}

// RunJobStopping keys the store exactly as the fabric's per-cell evaluate
// path does: samples drawn under sequential stopping replay in a plain
// RunJob of the same spec, and vice versa.
func TestRunJobStoppingSharesSampleKeys(t *testing.T) {
	store, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	store.WithObs(reg)
	hits, stores := reg.Counter("samplestore_hits_total"), reg.Counter("samplestore_stores_total")
	spec := testJobSpec(t, 6, 2)
	env := runner.JobEnv{Samples: store}
	// A huge target converges every cell at the starting R = 2, so the
	// store ends up with exactly the samples RunJob(R=2) needs.
	stop := Stopping{Metric: replica.OnlinePerFile, Target: 1e9, MaxReplicas: 4}
	seq, err := RunJobStopping(context.Background(), spec, env, 0, stop)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore, storesBefore := hits.Value(), stores.Value()
	plain, err := RunJob(context.Background(), spec, env, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h, n := hits.Value()-hitsBefore, stores.Value()-storesBefore; h != 4 || n != 0 {
		t.Fatalf("RunJob after RunJobStopping: %d hits, %d new stores — keys diverge", h, n)
	}
	if !reflect.DeepEqual(seq, plain) {
		t.Fatal("sequential and plain aggregates differ at equal R")
	}
}

// A disabled stopping rule makes RunJobStopping numerically identical to
// RunJob.
func TestRunJobStoppingDisabledMatchesRunJob(t *testing.T) {
	spec := testJobSpec(t, 5, 2)
	seq, err := RunJobStopping(context.Background(), spec, runner.JobEnv{}, 0, Stopping{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunJob(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, plain) {
		t.Fatal("disabled stopping diverges from RunJob")
	}
}

func TestReduceJobErrors(t *testing.T) {
	spec := testJobSpec(t, 1, 2)
	if _, err := ReduceJob(spec, make([][]byte, 3)); err == nil ||
		!strings.Contains(err.Error(), "payloads") {
		t.Errorf("wrong payload count error = %v", err)
	}
	payloads := make([][]byte, 4)
	for i := range payloads {
		payloads[i] = []byte("garbage")
	}
	if _, err := ReduceJob(spec, payloads); err == nil {
		t.Error("undecodable payloads accepted")
	}
}

// Per-cell replica counts have one spelling: one count >= 1 per cell, not
// all equal, beside a zero spec Replicas. A valid spec fans every grid cell
// out to its own count, replicas in order, seeded as the engine seeds them.
func TestPerCellReplicaCounts(t *testing.T) {
	withCounts := func(replicas int, counts []int) runner.JobSpec {
		spec := testJobSpec(t, 7, replicas)
		p, err := Params(spec)
		if err != nil {
			t.Fatal(err)
		}
		p.Replicas = counts
		if spec.Params, err = json.Marshal(p); err != nil {
			t.Fatal(err)
		}
		return spec
	}
	for name, spec := range map[string]runner.JobSpec{
		"uniform":        withCounts(0, []int{3, 3}),
		"beside-spec-R":  withCounts(2, []int{2, 4}),
		"short":          withCounts(0, []int{2}),
		"zero-count":     withCounts(0, []int{0, 2}),
		"negative-count": withCounts(0, []int{-1, 2}),
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: per-cell counts accepted", name)
		}
	}
	job, err := withCounts(0, []int{2, 3}).Prepare()
	if err != nil {
		t.Fatal(err)
	}
	if job.Cells != 5 {
		t.Fatalf("job has %d executable cells, want 2+3", job.Cells)
	}
	for i, want := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}} {
		_, seed, ok := job.SampleRef(i)
		if !ok || seed != replica.SeedOf(7, want[0], want[1]) {
			t.Errorf("executable cell %d: seed %d, want grid cell %d replica %d", i, seed, want[0], want[1])
		}
	}
}

// RunRounds is the stopping loop served one round spec at a time. Served by
// RunJobPayloads over a sample store it returns exactly RunJobStopping's
// aggregates; the rows stop at different replica counts; the first round
// is the input spec byte for byte; and no replica is simulated twice.
func TestRunRoundsMatchesRunJobStopping(t *testing.T) {
	ctx := context.Background()
	spec := testJobSpec(t, 11, 2)
	start, err := RunJob(ctx, spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := start[0].CI95(replica.OnlinePerFile), start[1].CI95(replica.OnlinePerFile)
	if lo > hi {
		lo, hi = hi, lo
	}
	if !(lo < hi) {
		t.Fatalf("cells start with equal CI95 %v; the test needs rows that stop apart", lo)
	}
	// Between the two: one row stops at the start, the other grows.
	stop := Stopping{Metric: replica.OnlinePerFile, Target: (lo + hi) / 2, MaxReplicas: 8}
	want, err := RunJobStopping(ctx, spec, runner.JobEnv{}, 0, stop)
	if err != nil {
		t.Fatal(err)
	}

	store, err := diskcache.OpenSamples(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	store.WithObs(reg)
	var rounds []runner.JobSpec
	got, err := RunRounds(ctx, spec, stop, func(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
		rounds = append(rounds, round)
		return runner.RunJobPayloads(ctx, round, runner.JobEnv{Samples: store}, runner.Options{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("RunRounds aggregates differ from RunJobStopping's")
	}
	if got[0].Replicas == got[1].Replicas {
		t.Fatalf("both rows stopped at R=%d; want per-row stopping", got[0].Replicas)
	}
	if n := reg.Counter("samplestore_stores_total").Value(); n != uint64(got[0].Replicas+got[1].Replicas) {
		t.Errorf("stored %d samples for %d replicas: a round resampled", n, got[0].Replicas+got[1].Replicas)
	}
	first, err := rounds[0].Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if orig, _ := spec.Canonical(); string(first) != string(orig) {
		t.Errorf("first round re-encoded the uniform spec:\n%s\nvs\n%s", first, orig)
	}
	if p, err := Params(rounds[1]); err != nil || len(p.Replicas) != 2 {
		t.Errorf("second round carries per-cell counts %v (%v), want one per cell", p.Replicas, err)
	}
}
