package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// batchOpts is what the run loop hands one batch.
type batchOpts struct {
	// Workers is the closed loop's client count: the runner pool size, or
	// the number of fabric workers.
	Workers int
	// Dir is a fresh scratch directory inside the checkout, removed after
	// the batch, so no store is ever warm from an earlier batch.
	Dir string
	// Trace, when non-nil, makes the harness the orchestrator: it calls the
	// layers' public functions itself and records a span per call.
	Trace *tracer
}

// batchResult is one closed-loop batch: untimed set-up, the timed section,
// untimed verification.
type batchResult struct {
	Setup time.Duration
	// Timed is the timed section: wall_s, cpu_s and alloc_mb.
	Timed usage
	// Measured is all the time the batch spent in timed sections
	// (fabric_fine also times a one-worker phase and a resume phase);
	// together with Setup it is what counts against -seconds.
	Measured time.Duration
	// Cells is the number of executable cells the timed section completed.
	Cells int
	// Attempted and Failed feed fail_frac: cells that errored, were lost
	// after retries or failed verification, over cells attempted.
	Attempted, Failed int
	// Output is what the batch computed, for output_sha256 and for the
	// identity checks between batches, worker counts and traced runs.
	Output []byte
	// Extra holds the end-to-end metrics only some workloads define
	// (scale_eff, sim_relerr, ci_rel).
	Extra map[string]float64
	// Layer holds per-layer values observed at the batch's boundaries:
	// counts always, timings when traced.
	Layer map[string]float64
	// Notes explain every verification failure.
	Notes []string
}

// fail records a verification failure of n cells.
func (r *batchResult) fail(n int, format string, args ...any) {
	r.Failed += n
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// repeatSetup times a workload's set-up in a fresh directory under base
// (created before the clock starts: on the sandbox one mkdir costs
// 0.1-0.7 ms depending on what the file system did last, more than three of
// the five set-ups). A set-up of half a second is timed once. One of
// microseconds is then called back to back in setupBlocks blocks of about
// setupBlock each, all in a second directory (a set-up that short opens
// stores but writes nothing), and the median block's mean call is
// returned: timed singly, such a call reads the cache state the previous
// system call left, twofold apart from one batch to the next. The timed
// section uses what the last call built.
func repeatSetup(base string, setup func(dir string) error) (time.Duration, error) {
	timed := func(dir string, calls int) (time.Duration, error) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if err := setup(dir); err != nil {
				return 0, err
			}
		}
		return time.Since(t0) / time.Duration(calls), nil
	}
	once, err := timed(filepath.Join(base, "setup"), 1)
	if err != nil || once >= setupBlock {
		return once, err
	}
	again := filepath.Join(base, "setup-again")
	var blocks []float64
	for calls := 1; len(blocks) < setupBlocks; {
		per, err := timed(again, calls)
		if err != nil {
			return 0, err
		}
		if per*time.Duration(calls) < setupBlock/2 {
			calls *= 2 // still warming up: too short a block to count
			continue
		}
		blocks = append(blocks, per.Seconds())
	}
	return time.Duration(median(blocks) * float64(time.Second)), nil
}

const (
	setupBlock  = 5 * time.Millisecond
	setupBlocks = 9
)

// workload is one named set of inputs. batch runs one closed-loop batch;
// probes times single calls into the layers this workload stresses, at its
// operating point.
type workload struct {
	Name, Why string
	batch     func(ctx context.Context, in inputs, o batchOpts) (batchResult, error)
	probes    func(ctx context.Context, in inputs, o batchOpts) (map[string]float64, error)
}

var workloads = []workload{
	{
		Name:   "fluid_cold",
		Why:    "CMFSD p x rho surface into an empty disk cache: every cell is an ODE solve, so numeric/ode + cmfsd do the work and the stores only write",
		batch:  fluidColdBatch,
		probes: fluidColdProbes,
	},
	{
		Name:   "fluid_warm",
		Why:    "MTCD grid replayed against a prefilled disk tier: zero solves, so pool + cache + store reads do the work; the bypass workload for any solver change",
		batch:  fluidWarmBatch,
		probes: fluidWarmProbes,
	},
	{
		Name:   "flow_sim",
		Why:    "sim-replica job at the E9 validation point, four schemes x two correlations: the flow-level event simulator does the work",
		batch:  flowSimBatch,
		probes: flowSimProbes,
	},
	{
		Name:   "chunk_sim",
		Why:    "chunk-level swarm at ~250 and at 3-6k peers: working set against CPU cache and per-arrival cost, which the flow-level workload bypasses",
		batch:  chunkSimBatch,
		probes: chunkSimProbes,
	},
	{
		Name:   "fabric_fine",
		Why:    "sweepd serve -local-workers wiring over ~770 sub-millisecond cells: lease and complete round trips, the coordinator lock and two file writes per cell dominate",
		batch:  fabricFineBatch,
		probes: fabricFineProbes,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
