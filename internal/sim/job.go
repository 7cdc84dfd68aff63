// The sim-replica job kind: simulator replica batches as distributable
// jobs. A spec's params carry one simulator configuration per grid cell;
// the executable cells are the (grid cell × replica index) pairs, seeded
// by replica.SeedOf, so every executor — RunJob, a round of RunRounds, a
// fabric worker — draws the same samples, byte-identical at any worker
// count, with R = 1 pinned to the unreplicated goldens.
package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/scheme"
)

// JobKindSimReplica is the job kind of a replicated simulation sweep.
const JobKindSimReplica = "sim-replica"

// JobCell is one grid cell's simulator selection: a scheme plus exactly
// one simulator configuration, exactly as sim.New takes them. The
// embedded configuration must carry Seed 0 (replica seeds are derived by
// the engine) and a Scheme equal to the cell's — NewJobSpec normalizes
// both, Validate enforces them, so equal configurations always encode to
// equal bytes and therefore share sample-store entries.
type JobCell struct {
	// Scheme is the downloading scheme the cell simulates.
	Scheme scheme.SimScheme `json:"scheme"`
	// Config selects and parameterizes the simulator.
	Config Config `json:"config"`
}

// SampleKey renders the cell's sample-store identity: everything that
// determines its samples except the replica seed. Cells with equal
// configurations share a key — and therefore share stored samples — no
// matter which spec, grid position or base seed they appear under. Only
// normalized cells (as produced by NewJobSpec) key correctly; local
// callers should derive keys from Params(spec), not from raw inputs.
func (c JobCell) SampleKey() (string, error) {
	data, err := json.Marshal(c)
	if err != nil {
		return "", fmt.Errorf("sim: job cell: %w", err)
	}
	return "sample v" + fmt.Sprint(replica.SampleSchemaVersion) + " " + string(data), nil
}

// JobParams is the sim-replica kind's JobSpec.Params payload.
type JobParams struct {
	// Cells holds one simulator configuration per grid cell, in cell
	// order.
	Cells []JobCell `json:"cells"`
	// Replicas, when present, gives every grid cell its own replica count
	// and the spec's Replicas is 0. Uniform counts are always spelled as
	// the spec's Replicas, so a uniform job has one encoding. A count may
	// be 0 only beside a First above 0: a cell that has stopped growing.
	Replicas []int `json:"replicas,omitempty"`
	// First, when present, gives every grid cell the index of the first
	// replica it draws; absent means 0 for every cell, the only spelling
	// of that. Only RunRounds sets it, so that a round names only the
	// replicas it adds.
	First []int `json:"first,omitempty"`
}

// NewJobSpec lowers a list of simulator cells into a runnable JobSpec:
// Dims is the degenerate "cell" axis indexing the configurations, Seed
// and Replicas carry the replica engine's settings, and Params holds the
// normalized cells (embedded Seed zeroed, embedded Scheme aligned — the
// engine-derived replica seeds and the cell's scheme are authoritative).
func NewJobSpec(cells []JobCell, seed uint64, replicas int) (runner.JobSpec, error) {
	if len(cells) == 0 {
		return runner.JobSpec{}, fmt.Errorf("sim: job needs at least one cell")
	}
	if replicas < 0 {
		return runner.JobSpec{}, fmt.Errorf("sim: job replicas %d must be >= 0", replicas)
	}
	norm := make([]JobCell, len(cells))
	for i, c := range cells {
		cfg, embScheme, embSeed, err := c.Config.pick()
		if err != nil {
			return runner.JobSpec{}, fmt.Errorf("sim: job cell %d: %w", i, err)
		}
		*embScheme, *embSeed = c.Scheme, 0
		norm[i] = JobCell{Scheme: c.Scheme, Config: cfg}
	}
	return newSpec(JobParams{Cells: norm}, seed, replicas)
}

// newSpec frames normalized params as a prepared spec.
func newSpec(p JobParams, seed uint64, replicas int) (runner.JobSpec, error) {
	params, err := json.Marshal(p)
	if err != nil {
		return runner.JobSpec{}, fmt.Errorf("sim: job params: %w", err)
	}
	g, err := runner.Indexed("cell", len(p.Cells))
	if err != nil {
		return runner.JobSpec{}, err
	}
	spec := runner.JobSpec{
		Schema:   runner.JobSpecSchemaVersion,
		Kind:     JobKindSimReplica,
		Dims:     g.Dims(),
		Seed:     seed,
		Replicas: replicas,
		Params:   params,
	}
	job, err := spec.Prepare()
	if err != nil {
		return runner.JobSpec{}, err
	}
	return job.Spec(), nil
}

// Params decodes a sim-replica spec's cell configurations. Decoding is
// strict: a field this build does not know is an error, never silently
// dropped.
func Params(spec runner.JobSpec) (JobParams, error) {
	if spec.Kind != JobKindSimReplica {
		return JobParams{}, fmt.Errorf("sim: spec kind %q is not %q", spec.Kind, JobKindSimReplica)
	}
	dec := json.NewDecoder(bytes.NewReader(spec.Params))
	dec.DisallowUnknownFields()
	var p JobParams
	if err := dec.Decode(&p); err != nil {
		return JobParams{}, fmt.Errorf("sim: job params: %w", err)
	}
	return p, nil
}

// layout places a spec's executable cells: grid cell c owns executable
// cells [off[c], off[c+1]), which draw its replicas first[c], first[c]+1,
// … in order, each seeded replica.SeedOf(seed, c, replica).
type layout struct {
	seed       uint64
	first, off []int
}

// newLayout checks the spelling of the per-cell counts (p.Replicas, else
// the spec's Replicas, 0 meaning 1) and first indices and sums them — the
// one place that does, so the one that refuses an int overflow and a job
// past runner.MaxJobCells. Every spec reaches it through Prepare, ParseJobSpec's
// included.
func newLayout(spec runner.JobSpec, p JobParams) (layout, error) {
	n := len(p.Cells)
	if k := len(p.Replicas); k > 0 && (spec.Replicas != 0 || k != n ||
		slices.Min(p.Replicas) < 0 || slices.Min(p.Replicas) == slices.Max(p.Replicas)) {
		return layout{}, fmt.Errorf("sim: per-cell replica counts %v beside replicas %d for %d cells are not canonical",
			p.Replicas, spec.Replicas, n)
	}
	if k := len(p.First); k > 0 && (k != n || slices.Min(p.First) < 0 || slices.Max(p.First) == 0) {
		return layout{}, fmt.Errorf("sim: first replica indices %v for %d cells are not canonical", p.First, n)
	}
	l := layout{seed: spec.Seed, first: p.First, off: make([]int, n+1)}
	if l.first == nil {
		l.first = make([]int, n)
	}
	lastRep := 0
	for c := range n {
		count := max(spec.Replicas, 1)
		if len(p.Replicas) > 0 {
			count = p.Replicas[c]
		}
		if count == 0 && l.first[c] == 0 {
			return layout{}, fmt.Errorf("sim: job cell %d draws no replica", c)
		}
		if count > math.MaxInt-l.off[c] || count > math.MaxInt-l.first[c] {
			return layout{}, fmt.Errorf("sim: job replica counts overflow at cell %d", c)
		}
		l.off[c+1] = l.off[c] + count
		lastRep = max(lastRep, l.first[c]+count)
	}
	if l.cells() > runner.MaxJobCells || lastRep > runner.MaxJobCells {
		return layout{}, fmt.Errorf("sim: job of %d executable cells drawing replicas below index %d is past the cap of %d",
			l.cells(), lastRep, runner.MaxJobCells)
	}
	return l, nil
}

// cells is the number of executable cells.
func (l layout) cells() int { return l.off[len(l.off)-1] }

// rep is the replica executable cell e draws: the one mapping from
// executable cells to replicas, which evaluation, sample keys and Reps
// read.
func (l layout) rep(e int) replica.Rep {
	pos, _ := slices.BinarySearch(l.off, e+1) // first offset past e
	c := pos - 1
	r := l.first[c] + e - l.off[c]
	return replica.Rep{Cell: c, Replica: r, Seed: replica.SeedOf(l.seed, c, r)}
}

// specLayout validates a sim-replica spec and returns its params and
// layout.
func specLayout(spec runner.JobSpec) (JobParams, layout, error) {
	if _, err := spec.Prepare(); err != nil {
		return JobParams{}, layout{}, err
	}
	p, err := Params(spec)
	if err != nil {
		return JobParams{}, layout{}, err
	}
	l, err := newLayout(spec, p)
	return p, l, err
}

// Reps lists the replica every executable cell of a sim-replica spec
// draws, in executable-cell order — for a round of RunRounds, the ones it
// adds — for executors that run a spec's cells themselves.
func Reps(spec runner.JobSpec) ([]replica.Rep, error) {
	_, l, err := specLayout(spec)
	if err != nil {
		return nil, err
	}
	reps := make([]replica.Rep, l.cells())
	for e := range reps {
		reps[e] = l.rep(e)
	}
	return reps, nil
}

// init registers the sim-replica kind. The registration reaches every
// binary that can construct a simulator (experiments, the sweep CLIs,
// fabric workers) through their existing imports of this package; a
// process without it rejects sim-replica specs as an unknown kind, which
// is the correct refusal for a build that could not execute them anyway.
func init() {
	runner.RegisterJobKind(runner.JobKind{Name: JobKindSimReplica, Prepare: prepareJob})
}

// decoded is a sim-replica spec's params decoded once: per grid cell the
// simulator and the sample-store key, the two things every replica of the
// cell shares, and the executable-cell layout. The keys cost a JSON
// encoding per cell and only executors that hold a sample store need
// them, so they are rendered on first use.
type decoded struct {
	layout
	params JobParams
	sims   []replica.Sim

	keysOnce sync.Once
	keys     []string
	keysErr  error
}

func (d *decoded) key(cell int) (string, error) {
	d.keysOnce.Do(func() {
		d.keys = make([]string, len(d.params.Cells))
		for i, c := range d.params.Cells {
			if d.keys[i], d.keysErr = c.SampleKey(); d.keysErr != nil {
				return
			}
		}
	})
	if d.keysErr != nil {
		return "", d.keysErr
	}
	return d.keys[cell], nil
}

// decodeCells validates a sim-replica spec's params against its grid and
// constructs every grid cell's simulator.
func decodeCells(spec runner.JobSpec) (*decoded, error) {
	p, err := Params(spec)
	if err != nil {
		return nil, err
	}
	if len(p.Cells) == 0 {
		return nil, fmt.Errorf("sim: job has no cells")
	}
	if len(spec.Dims) != 1 || spec.Dims[0].Name != "cell" {
		return nil, fmt.Errorf("sim: job dims must be the single %q axis", "cell")
	}
	if len(spec.Dims[0].Values) != len(p.Cells) {
		return nil, fmt.Errorf("sim: job sweeps %d cells but params carry %d",
			len(spec.Dims[0].Values), len(p.Cells))
	}
	for i, v := range spec.Dims[0].Values {
		if v != float64(i) {
			return nil, fmt.Errorf("sim: job cell axis value %d is %v, want %d", i, v, i)
		}
	}
	l, err := newLayout(spec, p)
	if err != nil {
		return nil, err
	}
	d := &decoded{layout: l, params: p, sims: make([]replica.Sim, len(p.Cells))}
	for i, c := range p.Cells {
		_, embScheme, embSeed, err := c.Config.pick()
		if err == nil && *embSeed != 0 {
			return nil, fmt.Errorf("sim: job cell %d embeds seed %d; replica seeds are engine-derived (see NewJobSpec)",
				i, *embSeed)
		}
		if d.sims[i], err = New(c.Scheme, c.Config); err != nil {
			return nil, fmt.Errorf("sim: job cell %d: %w", i, err)
		}
		if *embScheme != c.Scheme {
			return nil, fmt.Errorf("sim: job cell %d embeds scheme %v, cell says %v", i, *embScheme, c.Scheme)
		}
	}
	return d, nil
}

// prepareJob decodes the spec once into its executable cells, each the
// replica its layout names; the payload is the canonical sample encoding.
// A sample in env.Samples under (cell key, seed) that still decodes is
// replayed, and a fresh one is stored, best-effort.
func prepareJob(spec runner.JobSpec) (*runner.Job, error) {
	d, err := decodeCells(spec)
	if err != nil {
		return nil, err
	}
	n := d.cells()
	return &runner.Job{
		Cells: n,
		Evaluate: func(ctx context.Context, env runner.JobEnv, i int) ([]byte, error) {
			r, store, ob := d.rep(i), env.Samples, env.Obs
			var key string
			if store != nil {
				k, err := d.key(r.Cell)
				if err != nil {
					return nil, err
				}
				key = k
				if payload, ok := store.Get(key, r.Seed); ok {
					if sample, err := replica.DecodeSample(payload); err == nil {
						return replica.EncodeSample(sample)
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
			sample, err := d.sims[r.Cell].Simulate(ctx, r)
			if ob != nil {
				ob.Histogram("replica_simulate_seconds", obs.LatencyBuckets).Since(simStart)
				sp.End()
			}
			if err != nil {
				return nil, fmt.Errorf("cell %d replica %d (seed %d): %w", r.Cell, r.Replica, r.Seed, err)
			}
			payload, err := replica.EncodeSample(sample)
			if err == nil && store != nil {
				_ = store.Put(key, r.Seed, payload)
			}
			return payload, err
		},
		SampleRef: func(i int) (string, uint64, bool) {
			if i < 0 || i >= n {
				return "", 0, false
			}
			r := d.rep(i)
			key, err := d.key(r.Cell)
			return key, r.Seed, err == nil
		},
	}, nil
}

// RunJob executes a sim-replica job locally over the runner pool and
// reduces each grid cell's replicas into an Agg, timed into env.Obs.
func RunJob(ctx context.Context, spec runner.JobSpec, env runner.JobEnv, opts runner.Options) ([]replica.Agg, error) {
	if spec.Kind != JobKindSimReplica {
		return nil, fmt.Errorf("sim: spec kind %q is not %q", spec.Kind, JobKindSimReplica)
	}
	payloads, err := runner.RunJobPayloads(ctx, spec, env, opts)
	if err != nil {
		return nil, err
	}
	have, err := samplesOf(spec, payloads)
	if err != nil {
		return nil, err
	}
	return reduceCells(have, env.Obs), nil
}

// ReduceJob folds a sim-replica job's payloads — in executable-cell order,
// as returned by RunJobPayloads or Coordinator.Payloads — into per-grid-
// cell aggregates via the replica engine's reduction.
func ReduceJob(spec runner.JobSpec, payloads [][]byte) ([]replica.Agg, error) {
	have, err := samplesOf(spec, payloads)
	if err != nil {
		return nil, err
	}
	return reduceCells(have, nil), nil
}

// samplesOf decodes a sim-replica job's payloads, in executable-cell
// order, into every grid cell's samples in replica order.
func samplesOf(spec runner.JobSpec, payloads [][]byte) ([][]replica.Sample, error) {
	p, l, err := specLayout(spec)
	if err != nil {
		return nil, err
	}
	if len(payloads) != l.cells() {
		return nil, fmt.Errorf("sim: job has %d payloads, want %d", len(payloads), l.cells())
	}
	out := make([][]replica.Sample, len(p.Cells))
	for c := range out {
		out[c] = make([]replica.Sample, 0, l.off[c+1]-l.off[c])
		for e := l.off[c]; e < l.off[c+1]; e++ {
			s, err := replica.DecodeSample(payloads[e])
			if err != nil {
				return nil, fmt.Errorf("sim: cell %d replica %d: %w", c, l.first[c]+e-l.off[c], err)
			}
			out[c] = append(out[c], s)
		}
	}
	return out, nil
}
