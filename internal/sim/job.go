// The sim-replica job kind: simulator replica batches as distributable
// jobs. A spec's params carry one simulator configuration per grid cell;
// the executable cells are the (grid cell × replica index) pairs, seeded
// by the replica engine's derivation scheme, so every executor — RunJob,
// RunJobStopping, RunRounds, a fabric worker — draws the same samples,
// byte-identical at any worker count, with R = 1 pinned to the
// unreplicated goldens.
package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sync"

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
	// Replicas, when present, gives every grid cell its own replica count,
	// in cell order, and the spec's Replicas is then 0. Uniform counts are
	// always spelled as the spec's Replicas with this field absent, so a
	// uniform job has one encoding, and its fingerprint and sample keys
	// match those that checkpoints and sample stores already hold.
	Replicas []int `json:"replicas,omitempty"`
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

// Params decodes a sim-replica spec's cell configurations.
func Params(spec runner.JobSpec) (JobParams, error) {
	if spec.Kind != JobKindSimReplica {
		return JobParams{}, fmt.Errorf("sim: spec kind %q is not %q", spec.Kind, JobKindSimReplica)
	}
	var p JobParams
	if err := json.Unmarshal(spec.Params, &p); err != nil {
		return JobParams{}, fmt.Errorf("sim: job params: %w", err)
	}
	return p, nil
}

// offsets returns where every grid cell's executable cells start, plus the
// total: grid cell i owns [off[i], off[i+1]), its replicas in order. The
// counts are perCell when present, else replicas (0 meaning 1, as in the
// replica engine) for every cell.
func offsets(replicas int, perCell []int, cells int) []int {
	off := make([]int, cells+1)
	for i := range cells {
		r := max(replicas, 1)
		if len(perCell) > 0 {
			r = perCell[i]
		}
		off[i+1] = off[i] + r
	}
	return off
}

// locate maps executable cell e to its grid cell and replica index.
func locate(off []int, e int) (cell, rep int) {
	cell, found := slices.BinarySearch(off, e)
	if !found {
		cell--
	}
	return cell, e - off[cell]
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
// cell shares, and the executable-cell offsets. The keys cost a JSON
// encoding per cell and only executors that hold a sample store need
// them, so they are rendered on first use.
type decoded struct {
	params JobParams
	sims   []replica.Sim
	off    []int

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
	// Per-cell counts have one spelling: one count >= 1 per cell, not all
	// equal (uniform counts are the spec's Replicas), beside Replicas 0.
	if n := len(p.Replicas); n > 0 && (spec.Replicas != 0 || n != len(p.Cells) ||
		slices.Min(p.Replicas) < 1 || slices.Min(p.Replicas) == slices.Max(p.Replicas)) {
		return nil, fmt.Errorf("sim: per-cell replica counts %v beside replicas %d for %d cells are not canonical",
			p.Replicas, spec.Replicas, len(p.Cells))
	}
	d := &decoded{params: p, sims: make([]replica.Sim, len(p.Cells)),
		off: offsets(spec.Replicas, p.Replicas, len(p.Cells))}
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

// prepareJob decodes the spec once into its executable cells: cell e is
// replica e-off[c] of the grid cell c owning it, seeded
// replica.SeedOf(spec.Seed, c, rep) — exactly what the replica engine
// derives for the same cells. The payload is the canonical sample
// encoding, and the sample store (env.Samples) is consulted before
// simulating, so stored samples are replayed identically everywhere.
func prepareJob(spec runner.JobSpec) (*runner.Job, error) {
	d, err := decodeCells(spec)
	if err != nil {
		return nil, err
	}
	seed, n := spec.Seed, d.off[len(d.sims)]
	return &runner.Job{
		Cells: n,
		Evaluate: func(ctx context.Context, env runner.JobEnv, i int) ([]byte, error) {
			cell, rep := locate(d.off, i)
			var key string
			if env.Samples != nil {
				k, err := d.key(cell)
				if err != nil {
					return nil, err
				}
				key = k
			}
			sample, err := simulateStored(ctx, d.sims[cell],
				replica.Rep{Cell: cell, Replica: rep, Seed: replica.SeedOf(seed, cell, rep)},
				key, env.Samples, env.Obs)
			if err != nil {
				return nil, err
			}
			return replica.EncodeSample(sample)
		},
		SampleRef: func(i int) (string, uint64, bool) {
			if i < 0 || i >= n {
				return "", 0, false
			}
			cell, rep := locate(d.off, i)
			key, err := d.key(cell)
			return key, replica.SeedOf(seed, cell, rep), err == nil
		},
	}, nil
}

// RunJob executes a sim-replica job locally over the runner pool and
// reduces each grid cell's replicas into an Agg — numerically identical
// to RunSequential over the same cells at the spec's fixed replica count,
// and byte-identical whether the payloads were computed here, replayed
// from the sample store, or assembled by a fabric coordinator.
func RunJob(ctx context.Context, spec runner.JobSpec, env runner.JobEnv, opts runner.Options) ([]replica.Agg, error) {
	if spec.Kind != JobKindSimReplica {
		return nil, fmt.Errorf("sim: spec kind %q is not %q", spec.Kind, JobKindSimReplica)
	}
	payloads, err := runner.RunJobPayloads(ctx, spec, env, opts)
	if err != nil {
		return nil, err
	}
	return ReduceJob(spec, payloads)
}

// RunJobStopping executes a sim-replica job through the stopping loop in
// memory (RunSequential), seeded as RunJob is. env.Samples, keyed exactly
// as the fabric keys them, lets every round and every later re-run replay
// the samples already drawn. A disabled rule runs the spec's fixed
// replica count.
func RunJobStopping(ctx context.Context, spec runner.JobSpec, env runner.JobEnv, workers int, stop Stopping) ([]replica.Agg, error) {
	d, err := uniformJob(spec)
	if err != nil {
		return nil, err
	}
	opts := Options{
		Replicas: spec.Replicas, Workers: workers,
		Seed: spec.Seed, Obs: env.Obs,
	}
	if env.Samples != nil {
		if _, err := d.key(0); err != nil {
			return nil, err
		}
		opts.Samples = env.Samples
		opts.SampleKey = func(cell int) string { return d.keys[cell] }
	}
	return RunSequential(ctx, len(d.sims), func(cell int) replica.Sim {
		return d.sims[cell]
	}, opts, stop)
}

// RunRounds executes a sim-replica job through the stopping loop with each
// round's spec — lowered to the round's per-cell replica counts — served
// by serve, which returns its payloads in executable-cell order
// (runner.RunJobPayloads, or a fabric campaign's Serve). With a sample
// store behind serve the aggregates equal RunJobStopping's.
func RunRounds(ctx context.Context, spec runner.JobSpec, stop Stopping, serve func(context.Context, runner.JobSpec) ([][]byte, error)) ([]replica.Agg, error) {
	d, err := uniformJob(spec)
	if err != nil {
		return nil, err
	}
	return sequential(ctx, len(d.sims), spec.Replicas, stop, func(ctx context.Context, want []int) ([]replica.Agg, error) {
		p, r := JobParams{Cells: d.params.Cells}, want[0]
		if slices.Min(want) != slices.Max(want) {
			p.Replicas, r = want, 0
		}
		roundSpec, err := newSpec(p, spec.Seed, r)
		if err != nil {
			return nil, err
		}
		payloads, err := serve(ctx, roundSpec)
		if err != nil {
			return nil, err
		}
		return ReduceJob(roundSpec, payloads)
	})
}

// uniformJob validates and decodes a spec whose cells share one replica
// count, the start of a stopping run. Prepare makes the generic checks
// (schema, replicas, grid), free for a spec that carries its job.
func uniformJob(spec runner.JobSpec) (*decoded, error) {
	if _, err := spec.Prepare(); err != nil {
		return nil, err
	}
	d, err := decodeCells(spec)
	if err == nil && len(d.params.Replicas) > 0 {
		err = fmt.Errorf("sim: a stopping run starts from a uniform replica count")
	}
	return d, err
}

// ReduceJob folds a sim-replica job's payloads — in executable-cell order,
// as returned by RunJobPayloads or Coordinator.Payloads — into per-grid-
// cell aggregates via the replica engine's reduction.
func ReduceJob(spec runner.JobSpec, payloads [][]byte) ([]replica.Agg, error) {
	p, err := Params(spec)
	if err != nil {
		return nil, err
	}
	job, err := spec.Prepare()
	if err != nil {
		return nil, err
	}
	if len(payloads) != job.Cells {
		return nil, fmt.Errorf("sim: job has %d payloads, want %d", len(payloads), job.Cells)
	}
	off := offsets(spec.Replicas, p.Replicas, len(p.Cells))
	out := make([]replica.Agg, len(off)-1)
	samples := make([]replica.Sample, 0, off[1])
	for cell := range out {
		samples = samples[:0]
		for e := off[cell]; e < off[cell+1]; e++ {
			s, err := replica.DecodeSample(payloads[e])
			if err != nil {
				return nil, fmt.Errorf("sim: cell %d replica %d: %w", cell, e-off[cell], err)
			}
			samples = append(samples, s)
		}
		out[cell] = replica.Reduce(samples)
	}
	return out, nil
}
