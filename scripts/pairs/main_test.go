package main

import "testing"

func TestJudge(t *testing.T) {
	lower := metricDecl{Name: "wall_s", Better: "lower", Bound: 0.25}
	higher := metricDecl{Name: "cells_per_s", Better: "higher", Bound: 0.25}
	flat := func(v float64) []float64 { // ten runs within ±2 % of v
		out := make([]float64, 10)
		for i := range out {
			out[i] = v * (0.98 + 0.004*float64(i))
		}
		return out
	}
	noisy := func(v float64) []float64 { // ten runs over ±40 % of v
		out := make([]float64, 10)
		for i := range out {
			out[i] = v * (0.6 + 0.08*float64(i))
		}
		return out
	}
	for _, c := range []struct {
		name           string
		m              metricDecl
		parent, change []float64
		won            int
		verdict        string
	}{
		{"clear gain", higher, flat(100), flat(400), 10, "improved"},
		{"gain on a lower-is-better metric", lower, flat(2), flat(1), 10, "improved"},
		{"too few pairs to claim", higher, flat(100)[:5], flat(400)[:5], 5, "within bound"},
		{"same", lower, flat(1), flat(1.001), 0, "within bound"},
		{"slower but inside the bound", lower, flat(1), flat(1.2), 0, "within bound"},
		{"slower than the bound", lower, flat(1), flat(1.3), 0, "worse"},
		{"throughput down by more than the bound", higher, flat(100), flat(70), 0, "worse"},
		{"spread wider than the bound", lower, noisy(1), noisy(1.01), 0, "unresolved"},
		{"wide, but every run of the change beats every run of the parent", lower, noisy(10)[:5], noisy(1)[:5], 5, "within bound"},
	} {
		won, verdict := judge(c.m, c.parent, c.change)
		if won != c.won || verdict != c.verdict {
			t.Errorf("%s: won %d, %q; want %d, %q", c.name, won, verdict, c.won, c.verdict)
		}
	}
}
