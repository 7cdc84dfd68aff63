package runner

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"mfdl/internal/obs"
	"mfdl/internal/rng"
	"mfdl/internal/runner/diskcache"
)

// JobEnv carries the shared process-local resources a job kind may draw on
// while evaluating cells. Every field is optional from the caller's point
// of view — executors fill in an in-memory Cache when none is given, and
// kinds must tolerate a nil Samples store (compute instead of reuse) and a
// nil Obs registry.
type JobEnv struct {
	// Cache pools steady-state solves across cells (fluid kinds).
	Cache *Cache
	// Samples, when non-nil, is the keyed replica-sample store: kinds that
	// draw stochastic replicas look each (key, seed) up before simulating
	// and persist what they had to compute, so growing the replica count
	// extends earlier runs instead of resampling them.
	Samples *diskcache.SampleStore
	// Obs, when non-nil, receives kind-specific instrumentation.
	Obs *obs.Registry
}

// JobKind defines one registrable cell computation: how a JobSpec of this
// kind validates and decodes into a Job. Everything per-cell lives on the
// Job — a kind has no spec-taking evaluate, so nothing a cell needs is
// re-derived from the spec's bytes cell by cell.
type JobKind struct {
	// Name is the kind's wire name (JobSpec.Kind).
	Name string
	// Prepare checks the kind-specific invariants beyond the generic schema,
	// grid and replica checks and decodes the spec once for execution. It
	// fills in the Job's exported fields; JobSpec.Prepare owns the rest.
	Prepare func(spec JobSpec) (*Job, error)
	// Validate, when non-nil, makes exactly Prepare's checks without
	// building the Job — for kinds whose checks are cheaper than their
	// decoding. Nil means JobSpec.Validate prepares and drops the result.
	Validate func(spec JobSpec) error
	// SampleRef is the spec-taking spelling of Job.SampleRef, kept for
	// callers that hold a kind and a spec rather than a Job. RegisterJobKind
	// installs it; it reaches the Job through the spec's handle (see
	// JobSpec.Prepare) and reports ok=false for kinds without sample
	// identities.
	SampleRef func(spec JobSpec, cell int) (key string, seed uint64, ok bool)
}

// MaxJobCells caps every kind's Job.Cells, and the replica indices a
// sim-replica cell draws: a coordinator keeps state per cell and a seed
// derivation walks the index, so an uncapped served spec could exhaust
// its memory or pin a worker. 2^20 is far past any real job.
const MaxJobCells = 1 << 20

// Job is a JobSpec validated and decoded once for execution: the cell
// count and the per-cell closures. It is immutable after Prepare and safe
// for concurrent use — one Job serves every cell of a run, locally or in a
// fabric worker or coordinator.
type Job struct {
	// Cells is how many executable cells the spec fans out to: the grid
	// size for a plain sweep, times the replica count for a replicated
	// kind. It is the unit the fabric leases and its checkpoint store
	// indexes.
	Cells int
	// Evaluate computes cell i's payload — opaque bytes chosen by the kind
	// (gob for fluid cells, canonical JSON for replica samples). The
	// payload is what crosses the fabric wire and its checkpoint files, so
	// it must be a pure function of (spec, cell): two processes evaluating
	// the same cell of equal specs must produce identical bytes. env only
	// decides how much is recomputed, never the bytes.
	Evaluate func(ctx context.Context, env JobEnv, cell int) ([]byte, error)
	// SampleRef, when non-nil, maps a cell to its sample-store identity —
	// the (key, seed) pair under which the cell's payload is persisted in
	// a diskcache.SampleStore. Executors that hold a sample store use it
	// to skip cells whose samples already exist and to write completed
	// cells back. ok=false means the cell has no store identity and is
	// always computed.
	SampleRef func(cell int) (key string, seed uint64, ok bool)

	spec JobSpec
}

// Spec returns the job's spec, carrying the handle that lets the
// spec-taking entry points (EvaluateJobCell, JobKind.SampleRef,
// JobSpec.CellCount) reach this Job without preparing again.
func (j *Job) Spec() JobSpec { return j.spec }

// EvaluateCell evaluates one bounds-checked cell — what a fabric worker
// runs per leased cell. It calls the Evaluate RunJobPayloads calls for
// every cell, so a distributed run is byte-identical to a local one.
func (j *Job) EvaluateCell(ctx context.Context, env JobEnv, cell int) ([]byte, error) {
	if cell < 0 || cell >= j.Cells {
		return nil, fmt.Errorf("runner: cell %d outside job of %d", cell, j.Cells)
	}
	if env.Cache == nil {
		env.Cache = NewCache()
	}
	return j.Evaluate(ctx, env, cell)
}

var (
	jobKindMu sync.RWMutex
	jobKinds  = map[string]JobKind{}
)

// RegisterJobKind adds a kind to the registry, typically from a package
// init. It panics on a duplicate name or a structurally incomplete kind —
// both are programmer errors that no run should limp past.
func RegisterJobKind(k JobKind) {
	if k.Name == "" || k.Prepare == nil {
		panic("runner: RegisterJobKind needs a name and a Prepare func")
	}
	k.SampleRef = func(spec JobSpec, cell int) (string, uint64, bool) {
		job, err := spec.Prepare()
		if err != nil || job.SampleRef == nil {
			return "", 0, false
		}
		return job.SampleRef(cell)
	}
	jobKindMu.Lock()
	defer jobKindMu.Unlock()
	if _, dup := jobKinds[k.Name]; dup {
		panic(fmt.Sprintf("runner: job kind %q registered twice", k.Name))
	}
	jobKinds[k.Name] = k
}

// LookupJobKind returns the registered kind by name.
func LookupJobKind(name string) (JobKind, bool) {
	jobKindMu.RLock()
	defer jobKindMu.RUnlock()
	k, ok := jobKinds[name]
	return k, ok
}

// JobKindNames returns the registered kind names, sorted — for error
// messages and CLI help.
func JobKindNames() []string {
	jobKindMu.RLock()
	defer jobKindMu.RUnlock()
	names := make([]string, 0, len(jobKinds))
	for name := range jobKinds {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// errUnknownKind is the one rejection every consumer of a spec must agree
// on — ParseJobSpec, the fabric's job fetch, and its completion endpoint
// all funnel through Prepare and therefore through this message.
func errUnknownKind(kind string) error {
	return fmt.Errorf("runner: unknown job kind %q (have %s)",
		kind, strings.Join(JobKindNames(), ", "))
}

// EvaluateJobCell evaluates one cell of a spec through its prepared Job
// (see Job.EvaluateCell). A spec carrying its handle — from ParseJobSpec,
// Job.Spec or a kind's constructor — pays no preparation here.
func EvaluateJobCell(ctx context.Context, spec JobSpec, env JobEnv, cell int) ([]byte, error) {
	job, err := spec.Prepare()
	if err != nil {
		return nil, err
	}
	return job.EvaluateCell(ctx, env, cell)
}

// RunJobPayloads executes every cell of the job locally over the runner
// pool and returns the raw per-cell payloads in cell order — the generic
// executor every kind shares. The payloads are the bytes a fabric
// coordinator collects for the same spec.
func RunJobPayloads(ctx context.Context, spec JobSpec, env JobEnv, opts Options) ([][]byte, error) {
	job, err := spec.Prepare()
	if err != nil {
		return nil, err
	}
	g, err := Indexed("cell", job.Cells)
	if err != nil {
		return nil, err
	}
	if env.Cache == nil {
		env.Cache = NewCache()
	}
	return Run(ctx, g, func(ctx context.Context, p Point, _ *rng.Source) ([]byte, error) {
		return job.Evaluate(ctx, env, p.Index)
	}, opts)
}
