package cmfsd

import (
	"testing"

	"mfdl/internal/fluid"
)

type kernelCase struct {
	name string
	m    fluid.Model
}

// kernelCases are eq5's two callers at the paper's K = 10: the plain model
// with aborts, and the cheating experiment's two groups.
func kernelCases(tb testing.TB) []kernelCase {
	plain := model(tb, 10, 0.9, 0.5)
	plain.Theta = 0.001
	mixed := mixedModel(tb, 0.9, []Group{
		{Name: "obedient", Fraction: 0.6, Rho: 0},
		{Name: "cheater", Fraction: 0.4, Rho: 1},
	})
	return []kernelCase{{"Model", plain}, {"Mixed", mixed}}
}

// TestRHSAllocatesNothing guards the solvers' inner loop: an RHS call
// must not touch the heap.
func TestRHSAllocatesNothing(t *testing.T) {
	for _, c := range kernelCases(t) {
		s, dst := c.m.InitialState(), make([]float64, c.m.Dim())
		if n := testing.AllocsPerRun(100, func() { c.m.RHS(0, s, dst) }); n != 0 {
			t.Errorf("%s.RHS: %v allocations per call, want 0", c.name, n)
		}
	}
}

func BenchmarkRHS(b *testing.B) {
	for _, c := range kernelCases(b) {
		b.Run(c.name, func(b *testing.B) {
			s, dst := c.m.InitialState(), make([]float64, c.m.Dim())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.m.RHS(0, s, dst)
			}
		})
	}
}
