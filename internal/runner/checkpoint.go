package runner

import (
	"context"
	"fmt"

	"mfdl/internal/rng"
	"mfdl/internal/runner/diskcache"
)

// CellPanicError is the failure Run reports for a cell whose job
// panicked: the panic is recovered on the worker, so a crashing cell
// fails that cell (and, through the usual first-error rule, the run's
// error value) instead of killing the whole process.
type CellPanicError struct {
	// Cell is the panicking cell's label.
	Cell string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *CellPanicError) Error() string {
	return fmt.Sprintf("runner: cell %s panicked: %v", e.Cell, e.Value)
}

// Checkpoint binds a diskcache.CheckpointStore to one run identity so the
// job executors (RunJob, RunJobPayloads) can persist each completed cell
// and replay persisted cells on a re-run. The run key must capture
// everything that determines the cell values — parameters, grid shape,
// solver revision — exactly as a cache key would; two runs with the same
// key must compute bit-identical cells.
//
// A cell crosses the disk as its job payload bytes (gob for a fluid cell,
// see EncodeCellValue), which round-trip float64 bit patterns (including
// NaN) exactly, so a resumed run emits byte-identical output.
type Checkpoint struct {
	store *diskcache.CheckpointStore
	key   string
}

// NewCheckpoint binds store to runKey. A nil store yields a nil
// checkpoint (checkpointing disabled).
func NewCheckpoint(store *diskcache.CheckpointStore, runKey string) *Checkpoint {
	if store == nil {
		return nil
	}
	return &Checkpoint{store: store, key: runKey}
}

// Clear drops the run's checkpoints; call it once the run has fully
// completed and its results are delivered.
func (c *Checkpoint) Clear() error {
	if c == nil {
		return nil
	}
	return c.store.Clear(c.key)
}

// LoadRaw returns cell's checkpointed payload bytes verbatim, reporting
// whether one existed.
func (c *Checkpoint) LoadRaw(cell int) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.store.Get(c.key, cell)
}

// SaveRaw persists cell's payload bytes verbatim, best-effort: a full or
// read-only disk costs the resume capability, never the run.
func (c *Checkpoint) SaveRaw(cell int, payload []byte) {
	if c == nil {
		return
	}
	_ = c.store.Put(c.key, cell, payload)
}

// resumable wraps a cell computation with opts.Checkpoint, the one resume
// path both job executors share: a cell whose checkpointed payload decodes
// is replayed, and counted on runner_cells_resumed_total, instead of
// computed; a computed cell is encoded and persisted. An undecodable
// payload reads as a miss, so a stale or foreign entry re-runs the cell
// instead of failing the run.
func resumable[T any](opts Options, encode func(T) ([]byte, error), decode func([]byte) (T, error),
	compute func(context.Context, Point, *rng.Source) (T, error)) func(context.Context, Point, *rng.Source) (T, error) {
	resumed := opts.Obs.Counter("runner_cells_resumed_total")
	ckpt := opts.Checkpoint
	if ckpt == nil {
		return compute
	}
	return func(ctx context.Context, p Point, src *rng.Source) (T, error) {
		if payload, ok := ckpt.LoadRaw(p.Index); ok {
			if v, err := decode(payload); err == nil {
				resumed.Inc()
				return v, nil
			}
		}
		v, err := compute(ctx, p, src)
		if err != nil {
			return v, err
		}
		if payload, err := encode(v); err == nil {
			ckpt.SaveRaw(p.Index, payload)
		}
		return v, nil
	}
}
