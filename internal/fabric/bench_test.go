package fabric

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mfdl/internal/fluid"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// BenchmarkFabricThroughput measures end-to-end grid throughput through
// the fabric protocol — coordinator HTTP server, lease grants, cell
// evaluation, completion posts, result assembly — at several worker
// counts. The custom cells/sec metric is what `make bench` records in
// the benchmark-trajectory JSON; ns/op is a full job at that worker
// count.
func BenchmarkFabricThroughput(b *testing.B) {
	spec := runner.JobSpec{
		Schema: runner.JobSpecSchemaVersion,
		Kind:   runner.JobKindFluidSweep,
		Base: runner.Key{
			Scheme: scheme.MTCD, Params: fluid.PaperParams,
			K: 5, P: 0.9, Lambda0: 1,
		},
		Dims: []runner.Dim{
			{Name: "p", Values: runner.Linspace(0.05, 0.95, 16)},
			{Name: "lambda0", Values: []float64{0.5, 1, 2}},
		},
		Seed: 11,
	}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	grid, err := spec.Grid()
	if err != nil {
		b.Fatal(err)
	}
	cells := grid.Size()

	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				store, err := diskcache.OpenCheckpoint(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				// A short lease TTL keeps the workers' empty-queue retry
				// poll (TTL/4) from dwarfing the compute being measured;
				// cells finish in well under the TTL, so nothing expires.
				coord, err := NewCoordinator(spec, store, CoordinatorOptions{
					LeaseTTL: 250 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				srv := httptest.NewServer(coord.Handler())
				errs := make(chan error, workers)
				for w := 0; w < workers; w++ {
					go func(w int) {
						errs <- Work(ctx, srv.URL, WorkerOptions{
							Name: fmt.Sprintf("bench-w%d", w),
						})
					}(w)
				}
				for w := 0; w < workers; w++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
				if _, err := result(ctx, coord); err != nil {
					b.Fatal(err)
				}
				srv.Close()
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/sec")
		})
	}
}

// BenchmarkSimReplicaThroughput is the same end-to-end protocol
// measurement for the sim-replica kind: executable cells are
// (grid cell × replica) pairs, each a full flow-level simulation, so this
// tracks how fast the fabric ships simulator replicas rather than fluid
// solves.
func BenchmarkSimReplicaThroughput(b *testing.B) {
	spec := simTestSpec(b, 11, 32) // 2 grid cells × R=32 = 64 executable cells
	cells, err := spec.CellCount()
	if err != nil {
		b.Fatal(err)
	}

	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				store, err := diskcache.OpenCheckpoint(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				coord, err := NewCoordinator(spec, store, CoordinatorOptions{
					LeaseTTL: 250 * time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				srv := httptest.NewServer(coord.Handler())
				errs := make(chan error, workers)
				for w := 0; w < workers; w++ {
					go func(w int) {
						errs <- Work(ctx, srv.URL, WorkerOptions{
							Name: fmt.Sprintf("bench-w%d", w), Parallelism: 2,
						})
					}(w)
				}
				// The job is done when the last cell lands; the workers'
				// final "anything left?" poll (up to TTL/4 of idle sleep) is
				// protocol wind-down, not throughput, so it stays off the
				// clock.
				if err := coord.Wait(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				for w := 0; w < workers; w++ {
					if err := <-errs; err != nil {
						b.Fatal(err)
					}
				}
				if _, err := coord.Payloads(ctx); err != nil {
					b.Fatal(err)
				}
				srv.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/sec")
		})
	}
}

// BenchmarkFabricSimReplica is the benchmark's fabric_fine workload at
// package level: a sim-replica job of sub-millisecond MTCD cells (K 4,
// horizon 120) served to two in-process workers that share the
// coordinator's sample store, as `sweepd serve -local-workers 2
// -sample-dir D` runs it, timed until Payloads has every cell. Protocol
// round trips and store writes are most of a cell here, so this is the
// target `make profile` profiles for the fabric.
func BenchmarkFabricSimReplica(b *testing.B) {
	spec := simTestSpec(b, 11, 48) // 2 grid cells × R=48 = 96 executable cells
	cells, err := spec.CellCount()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		store, err := diskcache.OpenCheckpoint(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		samples, err := diskcache.OpenSamples(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		coord, err := NewCoordinator(spec, store, CoordinatorOptions{Samples: samples})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(coord.Handler())
		wctx, cancel := context.WithCancel(ctx)
		errs := make(chan error, 2)
		for w := 0; w < 2; w++ {
			go func() {
				errs <- Work(wctx, srv.URL, WorkerOptions{Name: fmt.Sprintf("bench-w%d", w), Samples: samples, Heartbeat: -1})
			}()
		}
		if _, err := coord.Payloads(ctx); err != nil {
			b.Fatal(err)
		}
		// A worker still in its idle poll is released, as sweepd serve
		// releases its local workers once the job is done.
		b.StopTimer()
		cancel()
		for w := 0; w < 2; w++ {
			if err := <-errs; err != nil && wctx.Err() == nil {
				b.Fatal(err)
			}
		}
		srv.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkCompleteParallel drives Coordinator.Complete from 1, 4 and 8
// goroutines on pre-built entries of a sim-replica job, checkpoint and
// sample store attached — the coordinator's share of a completion with
// HTTP and compute taken away. Time per cell that falls as goroutines are
// added means completions of different cells really do write in parallel;
// time that rises is convoying on c.mu. It gives the lock a W = 4 and a
// W = 8 point on machines whose end-to-end benchmark has neither.
func BenchmarkCompleteParallel(b *testing.B) {
	spec := simTestSpec(b, 11, 128) // 2 grid cells × R=128 = 256 executable cells
	payloads, err := runner.RunJobPayloads(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		b.Fatal(err)
	}
	fp := spec.Fingerprint()
	entries := make([]diskcache.Entry, len(payloads))
	for i, p := range payloads {
		entries[i] = diskcache.Entry{Schema: diskcache.CheckpointSchemaVersion, Key: fp, Cell: i, Payload: p}
	}
	for _, procs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("goroutines=%d", procs), func(b *testing.B) {
			var coord *Coordinator
			var next atomic.Int64
			fresh := func() {
				store, err := diskcache.OpenCheckpoint(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				samples, err := diskcache.OpenSamples(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				if coord, err = NewCoordinator(spec, store, CoordinatorOptions{Samples: samples}); err != nil {
					b.Fatal(err)
				}
				next.Store(0)
			}
			// One pass over the job per coordinator, so every timed call is
			// a first completion, never a duplicate.
			for done := 0; done < b.N; done += len(entries) {
				b.StopTimer()
				fresh()
				n := min(len(entries), b.N-done)
				b.StartTimer()
				var wg sync.WaitGroup
				for g := 0; g < procs; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
							if dup, err := coord.Complete(entries[i]); err != nil || dup {
								b.Errorf("Complete(cell %d) = duplicate %v, error %v", i, dup, err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
		})
	}
}
