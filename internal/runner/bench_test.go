package runner

import (
	"context"
	"fmt"
	"testing"

	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

var benchResult *metrics.SchemeResult

// warmSpec is an MTCD p × λ₀ × ρ sweep: ρ is innermost and MTCD ignores
// it, so eight neighbouring cells share each key — the shape of a replayed
// Fig. 4 style sweep.
func warmSpec() JobSpec {
	return JobSpec{
		Schema: JobSpecSchemaVersion, Kind: JobKindFluidSweep,
		Base: Key{Scheme: scheme.MTCD, Params: fluid.PaperParams, K: 10, P: 0.9, Lambda0: 1},
		Dims: []Dim{
			{Name: "p", Values: Linspace(0.1, 0.9, 15)},
			{Name: "lambda0", Values: Linspace(0.5, 4, 15)},
			{Name: "rho", Values: Linspace(0, 1, 7)},
		},
	}
}

// prefilled returns a directory whose disk tier already holds every key of
// the spec.
func prefilled(b *testing.B, spec JobSpec) string {
	b.Helper()
	dir := b.TempDir()
	disk, err := diskcache.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := RunJob(context.Background(), spec, NewDiskCache(disk), Options{Workers: 1}); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkCacheEvaluate times a hit in each tier: mem is a resident key,
// disk is a key's first use by a fresh cache over a prefilled directory
// (fingerprint, file read, decode).
func BenchmarkCacheEvaluate(b *testing.B) {
	spec := warmSpec()
	g, err := spec.Grid()
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]Key, 0, g.Size()/len(spec.Dims[2].Values))
	for i := 0; i < g.Size(); i += len(spec.Dims[2].Values) {
		k, err := spec.CellKey(g.Point(i))
		if err != nil {
			b.Fatal(err)
		}
		keys = append(keys, k)
	}
	dir := prefilled(b, spec)
	disk, err := diskcache.Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("mem", func(b *testing.B) {
		c := NewDiskCache(disk)
		if _, err := c.Evaluate(keys[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchResult, _ = c.Evaluate(keys[0])
		}
	})
	b.Run("disk", func(b *testing.B) {
		b.ReportAllocs()
		c := NewDiskCache(disk)
		for i := 0; i < b.N; i++ {
			if i%len(keys) == 0 {
				c = NewDiskCache(disk) // every key is a first use again
			}
			if benchResult, err = c.Evaluate(keys[i%len(keys)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRunWarmGrid replays the whole grid against the prefilled
// directory with a fresh memory tier per iteration: zero solves, one disk
// hit per key, seven memory hits behind each.
func BenchmarkRunWarmGrid(b *testing.B) {
	spec := warmSpec()
	dir := prefilled(b, spec)
	cells := 0
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				disk, err := diskcache.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				out, err := RunJob(context.Background(), spec, NewDiskCache(disk), Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				cells += len(out)
			}
			b.ReportMetric(float64(cells)/b.Elapsed().Seconds(), "cells/s")
			cells = 0
		})
	}
}
