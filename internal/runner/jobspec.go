package runner

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"mfdl/internal/rng"
)

// JobSpecSchemaVersion is embedded in every encoded JobSpec and checked on
// decode, so a coordinator and a worker built from different revisions of
// the job model refuse to exchange work instead of silently computing
// different cells.
const JobSpecSchemaVersion = 1

// JobKindFluidSweep is the job kind of a fluid parameter sweep: an
// N-dimensional grid of steady-state solves over one scheme's operating
// point. It is registered in this package's init; simulation-backed kinds
// register themselves the same way (see RegisterJobKind) and join the wire
// protocol without a schema break.
const JobKindFluidSweep = "fluid-sweep"

// JobSpec is the serializable description of one parameter-study run: the
// base operating point, the swept grid, and the execution identity (seed,
// replicas). It is the single type the local runner, the distributed
// coordinator, its workers and the checkpoint store all speak — a sweep is
// no longer a closure, it is data.
//
// Everything that determines a cell's value is inside the spec, so two
// processes holding equal specs compute bit-identical cells; Fingerprint
// renders that identity as a stable string (built on Key.Fingerprint, with
// every float encoded as its exact IEEE-754 bits). The JSON encoding is
// canonical — field order is fixed and encoding/json's shortest-round-trip
// float rendering restores every finite float64 bit-exactly — so a spec
// can cross the wire, the disk, or both, and still fingerprint the same.
type JobSpec struct {
	// Schema is the job-model revision; see JobSpecSchemaVersion.
	Schema int `json:"schema"`
	// Kind names the cell computation; see JobKindFluidSweep.
	Kind string `json:"kind"`
	// Base is the operating point the swept dimensions override cell by
	// cell.
	Base Key `json:"base"`
	// Dims are the swept dimensions in grid order; names come from
	// KeyDims.
	Dims []Dim `json:"dims"`
	// Seed is the base seed a simulation-backed kind derives its replica
	// seeds from (replica.SeedOf). Fluid solves draw nothing from it, but
	// it is part of the job identity all the same.
	Seed uint64 `json:"seed"`
	// Replicas is carried for the same reason: fluid cells ignore it, a
	// simulation-backed kind fans each cell into this many independently
	// seeded replicas.
	Replicas int `json:"replicas"`
	// Params is the kind-specific payload (absent for fluid sweeps). It
	// must itself be canonical JSON — produced by one json.Marshal of the
	// kind's params struct — so that equal specs still encode to equal
	// bytes; the kind's Validate enforces whatever structure it expects.
	Params json.RawMessage `json:"params,omitempty"`

	// job is the process-local handle to the spec's prepared Job, carried
	// by specs that came out of Prepare (ParseJobSpec, Job.Spec, the kinds'
	// constructors). It never crosses the wire and is ignored once any
	// field it was prepared from has been reassigned (see preparedFrom).
	job *Job
}

// KeyDims lists the dimension names a JobSpec may sweep: every axis maps
// onto one knob of the solve Key.
var KeyDims = []string{"p", "rho", "k", "mu", "gamma", "eta", "lambda0", "theta"}

// SetKeyDim overrides one named knob of a solve key. The name must come
// from KeyDims.
func SetKeyDim(key *Key, name string, v float64) error {
	switch name {
	case "p":
		key.P = v
	case "rho":
		key.Rho = v
	case "k":
		key.K = int(math.Round(v))
	case "mu":
		key.Params.Mu = v
	case "gamma":
		key.Params.Gamma = v
	case "eta":
		key.Params.Eta = v
	case "lambda0":
		key.Lambda0 = v
	case "theta":
		key.Theta = v
	default:
		return fmt.Errorf("runner: unknown job dimension %q (have %s)",
			name, strings.Join(KeyDims, ", "))
	}
	return nil
}

// Validate checks the spec's schema, kind, grid and dimension values —
// every number must be finite (NaN or ±Inf would break the canonical JSON
// encoding and can never name a meaningful cell) — and then the registered
// kind's own invariants. It always checks in full, handle or not.
func (s JobSpec) Validate() error {
	kind, err := s.validate()
	if err != nil {
		return err
	}
	if kind.Validate != nil {
		return kind.Validate(s)
	}
	_, err = kind.Prepare(s)
	return err
}

// validate makes the checks every kind shares and returns the spec's kind.
func (s JobSpec) validate() (JobKind, error) {
	if s.Schema != JobSpecSchemaVersion {
		return JobKind{}, fmt.Errorf("runner: job schema %d, this build speaks %d", s.Schema, JobSpecSchemaVersion)
	}
	kind, ok := LookupJobKind(s.Kind)
	if !ok {
		return JobKind{}, errUnknownKind(s.Kind)
	}
	if s.Replicas < 0 {
		return JobKind{}, fmt.Errorf("runner: job replicas %d must be >= 0", s.Replicas)
	}
	if _, err := s.Grid(); err != nil {
		return JobKind{}, err
	}
	for _, d := range s.Dims {
		for _, v := range d.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return JobKind{}, fmt.Errorf("runner: job dimension %q value %v is not finite", d.Name, v)
			}
		}
	}
	return kind, nil
}

// Prepare validates the spec and decodes it once for execution. A spec that
// already carries its Job returns it in O(1); any other spec pays the full
// validation and the kind's decode, so callers that evaluate many cells
// prepare once and keep the Job (or its Spec, which carries the handle).
func (s JobSpec) Prepare() (*Job, error) {
	if s.job != nil && s.job.preparedFrom(s) {
		return s.job, nil
	}
	kind, err := s.validate()
	if err != nil {
		return nil, err
	}
	job, err := kind.Prepare(s)
	if err != nil {
		return nil, err
	}
	s.job = job
	job.spec = s
	return job, nil
}

// preparedFrom reports whether s is still the spec j was prepared from:
// every scalar field equal and both slices the very arrays j decoded. A
// reassigned field therefore drops the handle; writing through a shared
// backing array does not, so a prepared spec's Dims values and Params
// bytes must be treated as immutable.
func (j *Job) preparedFrom(s JobSpec) bool {
	o := j.spec
	return s.Schema == o.Schema && s.Kind == o.Kind && s.Base == o.Base &&
		s.Seed == o.Seed && s.Replicas == o.Replicas &&
		sameArray(s.Dims, o.Dims) && sameArray(s.Params, o.Params)
}

func sameArray[T any](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// CellCount returns how many executable cells the spec fans out to under
// its registered kind (see Job.Cells).
func (s JobSpec) CellCount() (int, error) {
	job, err := s.Prepare()
	if err != nil {
		return 0, err
	}
	return job.Cells, nil
}

// Grid returns the spec's swept grid.
func (s JobSpec) Grid() (Grid, error) {
	return NewGrid(s.Dims...)
}

// CellKey returns the solve key of one grid cell: the base operating point
// with every swept dimension overridden by the cell's value.
func (s JobSpec) CellKey(p Point) (Key, error) {
	key := s.Base
	for _, d := range s.Dims {
		v, ok := p.Value(d.Name)
		if !ok {
			return Key{}, fmt.Errorf("runner: cell %s misses job dimension %q", p.Label(), d.Name)
		}
		if err := SetKeyDim(&key, d.Name, v); err != nil {
			return Key{}, err
		}
	}
	return key, nil
}

// CellValue is the evaluation of one JobSpec cell — the payload that
// crosses the fabric wire and its checkpoint files. Floats travel as gob,
// which round-trips their bit patterns exactly.
type CellValue struct {
	// Values are the swept dimension values, in grid dimension order.
	Values []float64
	// AvgOnline and AvgDownload are the paper's per-file aggregates.
	AvgOnline, AvgDownload float64
}

// EvaluateCell computes one cell of the job through the given solve cache
// (which must be non-nil; share one cache across cells to pool coinciding
// solves).
func (s JobSpec) EvaluateCell(cache *Cache, p Point) (CellValue, error) {
	key, err := s.CellKey(p)
	if err != nil {
		return CellValue{}, err
	}
	res, err := cache.Evaluate(key)
	if err != nil {
		return CellValue{}, err
	}
	return CellValue{
		Values:      p.Values(),
		AvgOnline:   res.AvgOnlinePerFile(),
		AvgDownload: res.AvgDownloadPerFile(),
	}, nil
}

// Fingerprint renders the job's identity as a stable string: the schema
// and kind, the base Key.Fingerprint, every dimension's values as exact
// IEEE-754 bits, and the seed/replica setting. Two specs share a
// fingerprint iff they compute bit-identical cell sets, so the fingerprint
// keys both the checkpoint store and the fabric wire — a worker can never
// deliver a cell into the wrong run.
func (s JobSpec) Fingerprint() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "job v%d %s ", s.Schema, s.Kind)
	sb.WriteString(s.Base.Fingerprint())
	for _, d := range s.Dims {
		fmt.Fprintf(&sb, " %s=[", d.Name)
		for i, v := range d.Values {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%016x", math.Float64bits(v))
		}
		sb.WriteByte(']')
	}
	fmt.Fprintf(&sb, " seed=%d replicas=%d", s.Seed, s.Replicas)
	// The params component appears only when a kind carries params, so the
	// fingerprints of pre-existing fluid jobs — and with them every
	// checkpoint directory and fabric run identity — are unchanged.
	if len(s.Params) > 0 {
		sum := sha256.Sum256(s.Params)
		fmt.Fprintf(&sb, " params=sha256:%x", sum)
	}
	return sb.String()
}

// Canonical returns the spec's canonical JSON encoding. The encoding is a
// pure function of the spec value, so equal specs encode to equal bytes.
func (s JobSpec) Canonical() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(s)
}

// ParseJobSpec decodes and prepares a JobSpec from its JSON encoding; the
// returned spec carries its Job. Params must arrive in the compact form
// Canonical renders them in: the fingerprint hashes their bytes, so any
// other form would change the job's identity on its next trip.
func ParseJobSpec(data []byte) (JobSpec, error) {
	var s JobSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return JobSpec{}, fmt.Errorf("runner: job spec: %w", err)
	}
	if canon, err := json.Marshal(s.Params); len(s.Params) > 0 && (err != nil || !bytes.Equal(canon, s.Params)) {
		return JobSpec{}, fmt.Errorf("runner: job params are not in canonical form")
	}
	job, err := s.Prepare()
	if err != nil {
		return JobSpec{}, err
	}
	return job.Spec(), nil
}

// CellStream returns the random stream cell i receives under base seed —
// the i-th split of the seed's parent stream, exactly what Run hands cell
// i at any worker count. It costs i splits.
func CellStream(seed uint64, i int) *rng.Source {
	parent := rng.New(seed)
	var src *rng.Source
	for j := 0; j <= i; j++ {
		src = parent.Split()
	}
	return src
}

// RunJob executes a fluid-sweep job locally over the runner pool and
// returns the per-cell values in grid order. cache may be nil (a private
// in-memory cache is used); opts (workers, hooks, obs) applies as in Run.
// A cache backed by a disk store is what lets a killed sweep resume:
// the rerun decodes every solve the killed one persisted. The output is
// byte-identical to a distributed execution of the same spec at any
// worker count. Other kinds return their payloads through RunJobPayloads
// and decode them themselves.
func RunJob(ctx context.Context, spec JobSpec, cache *Cache, opts Options) ([]CellValue, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Kind != JobKindFluidSweep {
		return nil, fmt.Errorf("runner: RunJob decodes %q cells only (got %q); use RunJobPayloads",
			JobKindFluidSweep, spec.Kind)
	}
	g, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = NewCache()
	}
	return Run(ctx, g, func(_ context.Context, p Point, _ *rng.Source) (CellValue, error) {
		return spec.EvaluateCell(cache, p)
	}, opts)
}
