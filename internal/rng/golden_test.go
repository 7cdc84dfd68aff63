package rng

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mfdl/internal/golden"
)

// goldenStream renders a fixed tour of one seed's stream: every variate
// the simulators draw, in one sequence, so a change to any generator's
// value or draw count moves every line after it.
func goldenStream(seed uint64) string {
	s := New(seed)
	var sb strings.Builder
	fmt.Fprintf(&sb, "seed %d\n", seed)
	sb.WriteString("uint64:")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, " %016x", s.Uint64())
	}
	sb.WriteString("\nfloat64:")
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&sb, " %016x", math.Float64bits(s.Float64()))
	}
	// 1<<62 + 1 rejects about a quarter of its draws: the loop's second
	// and later passes are in the stream.
	for _, n := range []int{1, 2, 3, 25, 5000, 1<<62 + 1} {
		fmt.Fprintf(&sb, "\nintn %d:", n)
		for i := 0; i < 8; i++ {
			fmt.Fprintf(&sb, " %d", s.Intn(n))
		}
	}
	// Both Poisson branches: Knuth's product below 30, normal above.
	for _, mean := range []float64{0.5, 8, 100} {
		fmt.Fprintf(&sb, "\npoisson %g:", mean)
		for i := 0; i < 8; i++ {
			fmt.Fprintf(&sb, " %d", s.Poisson(mean))
		}
	}
	for _, rate := range []float64{0.05, 1} {
		fmt.Fprintf(&sb, "\nexp %g:", rate)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&sb, " %016x", math.Float64bits(s.Exp(rate)))
		}
	}
	// One buffer through shrinking and growing n, as addPeer uses it.
	var buf []int
	for _, n := range []int{5, 0, 1, 25, 7, 40} {
		buf = s.PermInto(buf, n)
		fmt.Fprintf(&sb, "\nperm %d: %v", n, buf)
	}
	fmt.Fprintf(&sb, "\nnext: %016x\n", s.Uint64())
	return sb.String()
}

// TestGoldenStream pins the generator bit-for-bit for two seeds, so an
// rng micro-optimisation that changes a value or a draw count fails here
// before it reaches a simulator digest. Regenerating it is a re-golden
// event for every simulator (make regolden, DESIGN.md §10b).
func TestGoldenStream(t *testing.T) {
	golden.Check(t, filepath.Join("testdata", "stream.txt"), goldenStream(1)+goldenStream(20260930))
}
