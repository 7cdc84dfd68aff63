// Package mfdl reproduces "Analyzing Multiple File Downloading in
// BitTorrent" (Tian, Wu, Ng — ICPP 2006) as a Go library: fluid models for
// the four multiple-file downloading schemes (MTCD, MTSD, MFCD and the
// paper's proposed CMFSD), the numerical machinery to solve them (hand-
// rolled RK4 and Newton, linear algebra for stability analysis), two BitTorrent
// simulators that validate the models at the flow and chunk level, and the
// Adapt mechanism for distributed tuning of the collaboration ratio ρ.
//
// Two packages tie the stack together: internal/scheme is the unified
// factory — scheme.New dispatches a Scheme name plus fluid/correlation
// parameters to the right model and returns a uniform Evaluate surface —
// and internal/runner is the parallel execution engine every grid study
// runs on: N-dimensional grids over a bounded worker pool, per-cell
// deterministic RNG streams (results are bit-identical at any worker
// count), context cancellation with first-error propagation, and a
// two-tier solve cache: an in-process memoization tier that collapses
// coinciding steady-state solves with single-flight semantics, and an
// optional persistent tier (internal/runner/diskcache) that serializes
// results under a versioned, tolerance-aware key fingerprint so repeated
// invocations skip identical cells entirely (the -cache-dir flag on
// cmd/sweep and cmd/mfdl).
//
// The experiments API is context-first: grid studies (Fig4A, EtaAblation,
// SwarmCompare, Sweep) and every simulator-backed experiment
// (SimValidate, AdaptSweep, AdaptParams, Transient, Hetero) take a
// context.Context and fan out over the runner, so long surfaces are
// cancellable and parallel while rendering byte-identical tables at any
// worker count.
//
// Simulator-backed numbers run through the replica engine in
// internal/sim, over the simulator contract both backends implement
// (internal/replica): each simulation cell fans out into R independently
// seeded replicas (SimSettings.Replicas, or -replicas on cmd/btsim and
// cmd/mfdl) and every simulated metric reduces to mean / 95% confidence
// interval / min / max. Replica seeds are a pure function of (base seed,
// cell, replica) with replica 0 pinned to the base seed, so R = 1
// reproduces the unreplicated tables byte-for-byte — a promise pinned by
// golden files — and growing R extends a smaller study rather than
// resampling it.
//
// The root package only anchors the module; all functionality lives under
// internal/ (see README.md for the map) and is exercised by the binaries in
// cmd/, the runnable examples in examples/, and the per-figure benchmarks
// in bench_test.go.
package mfdl
