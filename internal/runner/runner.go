// Package runner is the parallel execution engine behind the parameter
// studies: N-dimensional grid specifications, a bounded worker pool,
// context cancellation with deterministic first-error propagation, and
// per-cell random-number streams derived by deterministic stream splitting
// so every result is bit-identical at any worker count.
//
// The paper's evaluation (Section 4) is a family of grids — p × ρ surfaces,
// η ablations, K scalings — whose cells are independent steady-state solves
// or simulation runs. Run executes any such grid:
//
//	grid, _ := runner.NewGrid(
//	    runner.Dim{Name: "p", Values: runner.Linspace(0.1, 1, 9)},
//	    runner.Dim{Name: "rho", Values: runner.Linspace(0, 1, 10)},
//	)
//	online, err := runner.Run(ctx, grid,
//	    func(ctx context.Context, pt runner.Point, src *rng.Source) (float64, error) {
//	        ...
//	    }, runner.Options{Workers: 8})
//
// Determinism contract: cell i always receives the i-th split of the base
// seed's stream and its result lands at index i of the output slice, so
// neither the worker count nor scheduling order is observable in the
// results. Errors are deterministic too — when several cells fail, Run
// reports the failure of the lowest-indexed cell.
package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/rng"
)

// Dim is one axis of a parameter grid: a name and the values swept along
// it.
type Dim struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Grid is the cartesian product of its dimensions, enumerated row-major
// (the last dimension varies fastest).
type Grid struct {
	dims []Dim
}

// NewGrid validates the dimensions and returns a Grid. Every dimension
// needs a unique non-empty name and a value; the size must fit an int.
func NewGrid(dims ...Dim) (Grid, error) {
	seen := map[string]bool{}
	size := 1
	for _, d := range dims {
		if d.Name == "" {
			return Grid{}, fmt.Errorf("runner: dimension with empty name")
		}
		if seen[d.Name] {
			return Grid{}, fmt.Errorf("runner: duplicate dimension %q", d.Name)
		}
		seen[d.Name] = true
		if len(d.Values) == 0 {
			return Grid{}, fmt.Errorf("runner: dimension %q has no values", d.Name)
		}
		if size > math.MaxInt/len(d.Values) {
			return Grid{}, fmt.Errorf("runner: grid of more than %d cells", math.MaxInt)
		}
		size *= len(d.Values)
	}
	copied := make([]Dim, len(dims))
	for i, d := range dims {
		copied[i] = Dim{Name: d.Name, Values: append([]float64(nil), d.Values...)}
	}
	return Grid{dims: copied}, nil
}

// Indexed returns a one-dimensional grid whose cells are the integers
// 0..n-1 — the degenerate grid used to fan a fixed work list out over the
// pool.
func Indexed(name string, n int) (Grid, error) {
	if n < 1 {
		return Grid{}, fmt.Errorf("runner: indexed grid needs n >= 1, got %d", n)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	return NewGrid(Dim{Name: name, Values: vals})
}

// Linspace returns steps+1 evenly spaced values from from to to
// (inclusive). steps < 1 is treated as 1.
func Linspace(from, to float64, steps int) []float64 {
	if steps < 1 {
		steps = 1
	}
	out := make([]float64, steps+1)
	for i := 0; i <= steps; i++ {
		out[i] = from + (to-from)*float64(i)/float64(steps)
	}
	return out
}

// Dims returns the grid's dimensions (shared; do not mutate).
func (g Grid) Dims() []Dim { return g.dims }

// Size returns the number of cells (1 for a zero-dimensional grid).
func (g Grid) Size() int {
	n := 1
	for _, d := range g.dims {
		n *= len(d.Values)
	}
	return n
}

// Point returns the cell with linear index i.
func (g Grid) Point(i int) Point {
	if i < 0 || i >= g.Size() {
		panic(fmt.Sprintf("runner: cell index %d outside grid of %d", i, g.Size()))
	}
	coords := make([]int, len(g.dims))
	rem := i
	for d := len(g.dims) - 1; d >= 0; d-- {
		n := len(g.dims[d].Values)
		coords[d] = rem % n
		rem /= n
	}
	return Point{Index: i, Coords: coords, dims: g.dims}
}

// Point is one grid cell: its linear index, its per-dimension coordinates,
// and accessors for the swept values.
type Point struct {
	// Index is the linear cell index in row-major enumeration order.
	Index int
	// Coords holds the per-dimension value indices.
	Coords []int
	dims   []Dim
}

// Values returns the swept value of every dimension, in dimension order.
func (p Point) Values() []float64 {
	out := make([]float64, len(p.dims))
	for d := range p.dims {
		out[d] = p.dims[d].Values[p.Coords[d]]
	}
	return out
}

// Value returns the swept value of the named dimension.
func (p Point) Value(name string) (float64, bool) {
	for d := range p.dims {
		if p.dims[d].Name == name {
			return p.dims[d].Values[p.Coords[d]], true
		}
	}
	return 0, false
}

// Label renders the cell as "name=value name=value" for error messages.
func (p Point) Label() string {
	s := ""
	for d := range p.dims {
		if d > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%g", p.dims[d].Name, p.dims[d].Values[p.Coords[d]])
	}
	return s
}

// Hooks observe grid execution. All hooks are invoked serially (never
// concurrently with themselves or each other), so they may touch shared
// state without locking.
type Hooks struct {
	// OnCell fires after every cell completes, successfully or not.
	OnCell func(p Point, err error)
}

// Options configure one Run call.
type Options struct {
	// Workers bounds the pool; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Seed is the base seed from which every cell's random stream is
	// split. Two Runs with the same seed and grid hand every cell the same
	// stream regardless of worker count.
	Seed uint64
	// Hooks observe progress.
	Hooks Hooks
	// Obs, when non-nil, receives the run's metrics: runner_cells /
	// runner_workers gauges, runner_cells_completed_total and
	// runner_cells_failed_total counters, a runner_cell_seconds latency
	// histogram, a runner_queue_wait_seconds backlog gauge and a final
	// runner_worker_utilization sample. With a span sink attached it also
	// records one "cell" span per cell. Nil disables instrumentation at
	// the cost of a few nil checks per cell (no clock reads, no
	// allocations).
	Obs *obs.Registry
}

// Run executes job over every cell of the grid with a bounded worker pool
// and returns the per-cell results indexed like the grid. The first error
// (by cell index) cancels the remaining cells and is returned.
//
// Cancellation is surfaced distinctly from cell failure, because the two
// race at shutdown: if ctx is canceled and every recorded failure is
// cancellation noise, Run returns plain ctx.Err() (a drained worker is
// not a failed sweep); if a genuine cell error raced the cancellation,
// Run returns the two joined, so errors.Is sees both; and if the
// cancellation landed only after every cell had already completed, Run
// returns the full result set — the drain arrived too late to cost
// anything.
func Run[T any](ctx context.Context, g Grid, job func(ctx context.Context, p Point, src *rng.Source) (T, error), opts Options) ([]T, error) {
	n := g.Size()
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}

	// Derive one independent stream per cell, in cell order, before any
	// worker starts: the assignment cell -> stream is then a pure function
	// of (seed, grid), untouched by scheduling. CellStream reproduces the
	// i-th stream standalone, and the pool tests hold the two derivations
	// equal.
	parent := rng.New(opts.Seed)
	srcs := make([]rng.Source, n)
	for i := range srcs {
		srcs[i] = *parent.Split()
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Instrumentation: all instruments are nil-safe no-ops when no
	// registry is attached, so the disabled path costs a few nil checks
	// per cell and reads no clocks.
	ob := opts.Obs
	var (
		cellSeconds = ob.Histogram("runner_cell_seconds", obs.LatencyBuckets)
		queueWait   = ob.Gauge("runner_queue_wait_seconds")
		completedC  = ob.Counter("runner_cells_completed_total")
		failedC     = ob.Counter("runner_cells_failed_total")
		tracing     = ob.Tracing()
	)
	if ob != nil {
		ob.Gauge("runner_cells").Set(float64(n))
		ob.Gauge("runner_workers").Set(float64(workers))
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex // guards errIdx/firstErr and the hooks
		errIdx   = -1
		firstErr error
		done     int
		failed   int
		busy     time.Duration
		start    = time.Now()
	)
	finish := func(p Point, dur time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		busy += dur
		if err != nil {
			// Lowest-indexed failure wins, except that cancellation noise
			// (cells aborted by an earlier real error) never displaces a
			// real error.
			isCancel := errors.Is(err, context.Canceled)
			curCancel := errors.Is(firstErr, context.Canceled)
			switch {
			case firstErr == nil,
				curCancel && !isCancel,
				curCancel == isCancel && p.Index < errIdx:
				errIdx, firstErr = p.Index, err
			}
			cancel()
		}
		done++
		if err != nil {
			failed++
			failedC.Inc()
		} else {
			completedC.Inc()
		}
		if opts.Hooks.OnCell != nil {
			opts.Hooks.OnCell(p, err)
		}
	}

	block := claimBlock(n, workers)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// src escapes, so it is declared per worker, not per cell (one
			// heap object per cell otherwise); it is reset to each cell's
			// stream before the cell runs.
			var src rng.Source
			for i, hi := 0, 0; ; i++ {
				if i == hi {
					// Claim a run of consecutive cells per atomic add.
					// Neighbours tend to share a solve key, and a worker handed
					// the cell next to one whose key is still being read from
					// disk would only sleep on that key's Once.
					hi = int(next.Add(int64(block)))
					i, hi = hi-block, min(hi, n)
				}
				if i >= n || runCtx.Err() != nil {
					return
				}
				p := g.Point(i)
				var (
					cellStart time.Time
					sp        obs.Span
				)
				if ob != nil {
					cellStart = time.Now()
					queueWait.Set(cellStart.Sub(start).Seconds())
					if tracing {
						sp = ob.StartSpan("cell", obs.L("cell", p.Label()))
					}
				}
				// Panic isolation: a panicking cell becomes its CellPanicError.
				// A cell is a pure function of its point and stream, so it
				// runs once — a rerun would replay the panic.
				src = srcs[i]
				v, err := runCell(runCtx, job, p, &src)
				var dur time.Duration
				if ob != nil {
					dur = time.Since(cellStart)
					cellSeconds.Observe(dur.Seconds())
					sp.End()
				}
				if err != nil {
					finish(p, dur, fmt.Errorf("runner: cell %s: %w", p.Label(), err))
					continue
				}
				out[i] = v
				finish(p, dur, nil)
			}
		}()
	}
	wg.Wait()

	if ob != nil {
		// Worker utilization: busy time summed over cells against the
		// pool's total wall-clock capacity.
		if elapsed := time.Since(start).Seconds(); elapsed > 0 {
			ob.Gauge("runner_worker_utilization").Set(
				busy.Seconds() / (float64(workers) * elapsed))
		}
	}

	// Disentangle cancellation from cell failure — the two race at
	// shutdown, and a drained worker must not read as a failed sweep:
	//   - no cancellation: a real cell error (if any) is the verdict;
	//   - cancellation with every cell already completed: the grid is
	//     whole, return it — the drain arrived too late to matter;
	//   - cancellation whose only failures wrap the cancellation itself:
	//     pure drain, report ctx.Err() alone;
	//   - cancellation racing a genuine cell error: surface both, joined,
	//     so errors.Is(err, context.Canceled) and the cell failure each
	//     stay visible.
	cellErr := firstErr
	if errors.Is(cellErr, context.Canceled) || (ctx.Err() != nil && errors.Is(cellErr, ctx.Err())) {
		cellErr = nil
	}
	switch {
	case ctx.Err() == nil && cellErr == nil && firstErr == nil:
		return out, nil
	case ctx.Err() == nil && cellErr == nil:
		// A cancellation-wrapped cell error without external cancellation:
		// some job saw the pool's internal cancel (or fabricated one);
		// keep the original first-error behaviour.
		return nil, firstErr
	case ctx.Err() == nil:
		return nil, cellErr
	case cellErr == nil && done == n && failed == 0:
		return out, nil
	case cellErr == nil:
		return nil, ctx.Err()
	default:
		return nil, errors.Join(ctx.Err(), cellErr)
	}
}

// claimBlock is how many consecutive cells a worker claims at a time: about
// 32 claims per worker over the run, so the tail stays balanced, capped at
// 64 cells, and 1 — a cell at a time — for every grid under 64 cells per
// worker.
func claimBlock(n, workers int) int {
	return max(1, min(n/(32*workers), 64))
}

// runCell executes one job attempt with panic isolation: a panic in the
// job becomes a CellPanicError instead of crashing the pool.
func runCell[T any](ctx context.Context, job func(ctx context.Context, p Point, src *rng.Source) (T, error), p Point, src *rng.Source) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &CellPanicError{Cell: p.Label(), Value: r, Stack: debug.Stack()}
		}
	}()
	return job(ctx, p, src)
}

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
