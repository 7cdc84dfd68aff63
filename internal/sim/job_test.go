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
func testJobCells(t testing.TB) []JobCell {
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
	// Two cells of 2^62 replicas sum past the largest int.
	if _, err := NewJobSpec(good, 1, 1<<62); err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("replica total overflowing int: err = %v", err)
	}
}

// A job past runner.MaxJobCells executable cells or replica indices is refused
// where a spec is built and, for a served spec, where it is parsed.
func TestJobCellCap(t *testing.T) {
	one := testJobCells(t)[:1]
	for _, replicas := range []int{1 << 40, runner.MaxJobCells + 1} {
		if _, err := NewJobSpec(one, 1, replicas); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("one cell of %d replicas: err = %v, want the cap", replicas, err)
		}
	}
	if _, err := NewJobSpec(testJobCells(t), 1, runner.MaxJobCells/2+1); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("two cells past the cap together: err = %v", err)
	}
	if _, err := NewJobSpec(one, 1, runner.MaxJobCells); err != nil {
		t.Errorf("one cell at the cap: %v", err)
	}
	spec, err := NewJobSpec(one, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Params(spec)
	if err != nil {
		t.Fatal(err)
	}
	p.First = []int{1 << 40}
	late := spec
	if late.Params, err = json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	many := spec
	many.Replicas = 1 << 40
	for name, s := range map[string]runner.JobSpec{"replicas": many, "first index": late} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runner.ParseJobSpec(data); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("served spec past the cap by its %s: err = %v", name, err)
		}
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
		{"unknown-field", func() runner.JobSpec {
			s := base
			s.Params = append([]byte(`{"later":1,`), base.Params[1:]...)
			return s
		}(), "unknown field"},
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
// reduction, in replica order, of every cell's simulator run directly at
// the SeedOf seeds, bit for bit.
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
	for cell, c := range p.Cells {
		s, err := New(c.Scheme, c.Config)
		if err != nil {
			t.Fatal(err)
		}
		samples := make([]replica.Sample, 3)
		for rep := range samples {
			if samples[rep], err = s.Simulate(context.Background(),
				replica.Rep{Cell: cell, Replica: rep, Seed: replica.SeedOf(9, cell, rep)}); err != nil {
				t.Fatal(err)
			}
		}
		if want := replica.Reduce(samples); !reflect.DeepEqual(got[cell], want) {
			t.Fatalf("cell %d: RunJob != the reduction of its direct runs", cell)
		}
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

// localServe serves every round through the job layer in this process.
func localServe(env runner.JobEnv) func(context.Context, runner.JobSpec) ([][]byte, error) {
	return func(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
		return runner.RunJobPayloads(ctx, round, env, runner.Options{})
	}
}

// RunRounds keys the store exactly as the fabric's per-cell evaluate path
// does: samples drawn under sequential stopping replay in a plain RunJob
// of the same spec, and vice versa.
func TestRunRoundsSharesSampleKeys(t *testing.T) {
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
	seq, err := RunRounds(context.Background(), spec, stop, nil, localServe(env))
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore, storesBefore := hits.Value(), stores.Value()
	plain, err := RunJob(context.Background(), spec, env, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if h, n := hits.Value()-hitsBefore, stores.Value()-storesBefore; h != 4 || n != 0 {
		t.Fatalf("RunJob after RunRounds: %d hits, %d new stores — keys diverge", h, n)
	}
	if !reflect.DeepEqual(seq, plain) {
		t.Fatal("sequential and plain aggregates differ at equal R")
	}
}

// A disabled stopping rule makes RunRounds one round, numerically
// identical to RunJob, and the reduction is timed once per cell.
func TestRunRoundsDisabledMatchesRunJob(t *testing.T) {
	spec := testJobSpec(t, 5, 2)
	reg := obs.New()
	seq, err := RunRounds(context.Background(), spec, Stopping{}, reg, localServe(runner.JobEnv{}))
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
	if n := reg.Histogram("replica_reduce_seconds", obs.LatencyBuckets).Count(); n != 2 {
		t.Errorf("replica_reduce_seconds counted %d reductions, want one per cell", n)
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

// Per-cell replica counts and first indices have one spelling each: one
// count >= 0 per cell, not all equal, beside a zero spec Replicas; one
// index >= 0 per cell, not all zero; and a count of 0 only for a cell that
// has drawn before. A valid spec fans every grid cell out to its own
// count, replicas in order from its first index, seeded by SeedOf.
func TestPerCellReplicaCounts(t *testing.T) {
	withFirst := func(replicas int, counts, first []int) runner.JobSpec {
		spec := testJobSpec(t, 7, replicas)
		p, err := Params(spec)
		if err != nil {
			t.Fatal(err)
		}
		p.Replicas, p.First = counts, first
		if spec.Params, err = json.Marshal(p); err != nil {
			t.Fatal(err)
		}
		return spec
	}
	withCounts := func(replicas int, counts []int) runner.JobSpec { return withFirst(replicas, counts, nil) }
	for name, spec := range map[string]runner.JobSpec{
		"uniform":        withCounts(0, []int{3, 3}),
		"beside-spec-R":  withCounts(2, []int{2, 4}),
		"short":          withCounts(0, []int{2}),
		"zero-count":     withCounts(0, []int{0, 2}),
		"negative-count": withCounts(0, []int{-1, 2}),
		"zero-first":     withFirst(2, nil, []int{0, 0}),
		"short-first":    withFirst(2, nil, []int{2}),
		"negative-first": withFirst(2, nil, []int{-1, 2}),
		"zero-at-zero":   withFirst(0, []int{0, 2}, []int{0, 2}),
		"index-overflow": withFirst(2, nil, []int{math.MaxInt - 1, 0}),
	} {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: per-cell counts accepted", name)
		}
	}
	// A later round: cell 0 has stopped at 2, cell 1 adds replicas 2 and 3.
	reps, err := Reps(withFirst(0, []int{0, 2}, []int{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if want := []replica.Rep{{Cell: 1, Replica: 2, Seed: replica.SeedOf(7, 1, 2)},
		{Cell: 1, Replica: 3, Seed: replica.SeedOf(7, 1, 3)}}; !reflect.DeepEqual(reps, want) {
		t.Errorf("round reps %+v, want %+v", reps, want)
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

// RunRounds is the stopping loop served one round spec at a time, and a
// round names only the replicas it adds. Served by RunJobPayloads without
// a sample store, every (cell, replica) is simulated exactly once; the
// rows stop at different replica counts with the aggregates of one
// RunJob at those counts; the first round is the input spec byte for
// byte; and a later round gives the stopped row no replica and the
// growing one only its new ones.
func TestRunRoundsDrawsEachReplicaOnce(t *testing.T) {
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

	reg := obs.New()
	var rounds []runner.JobSpec
	serve := localServe(runner.JobEnv{Obs: reg})
	got, err := RunRounds(ctx, spec, stop, nil, func(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
		rounds = append(rounds, round)
		return serve(ctx, round)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Replicas == got[1].Replicas {
		t.Fatalf("both rows stopped at R=%d; want per-row stopping", got[0].Replicas)
	}
	total := got[0].Replicas + got[1].Replicas
	if n := reg.Histogram("replica_simulate_seconds", obs.LatencyBuckets).Count(); n != uint64(total) {
		t.Errorf("simulated %d replicas for %d drawn: a round resampled", n, total)
	}
	var oneShot JobParams
	if oneShot, err = Params(spec); err != nil {
		t.Fatal(err)
	}
	oneShot.Replicas = []int{got[0].Replicas, got[1].Replicas}
	final, err := newSpec(oneShot, spec.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := RunJob(ctx, final, runner.JobEnv{}, runner.Options{}); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("RunRounds aggregates differ from one RunJob at the final counts (%v)", err)
	}
	first, err := rounds[0].Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if orig, _ := spec.Canonical(); string(first) != string(orig) {
		t.Errorf("first round re-encoded the uniform spec:\n%s\nvs\n%s", first, orig)
	}
	reps, err := Reps(rounds[1])
	if err != nil {
		t.Fatal(err)
	}
	stopped := 0
	if got[0].Replicas > got[1].Replicas {
		stopped = 1
	}
	if len(reps) != 2 {
		t.Fatalf("second round draws %d replicas, want the growing row's 2", len(reps))
	}
	for i, r := range reps {
		if r.Cell == stopped || r.Replica != 2+i || r.Seed != replica.SeedOf(11, r.Cell, r.Replica) {
			t.Errorf("second round executable cell %d draws %+v, want the growing row's replica %d", i, r, 2+i)
		}
	}
}
