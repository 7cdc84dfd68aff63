package stats

import (
	"math"
	"testing"

	"mfdl/internal/rng"
)

// ulpsApart returns how many representable float64s lie between a and b
// (0 when bit-identical). Only meaningful for finite same-sign values.
func ulpsApart(a, b float64) uint64 {
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	if ab > bb {
		ab, bb = bb, ab
	}
	return bb - ab
}

// checkMergeMatchesAdd merges the summaries of the given chunks of xs and
// compares against one single-stream Add over all of xs. The count, min
// and max must match exactly; the mean to within a handful of ULPs; the
// variance to a small relative error. Chan et al.'s pairwise update and
// Welford's streaming update accumulate m2 in different orders, so
// bit-equality is not expected there; the bounds below were chosen
// empirically to hold with margin even in the worst conditioned trials
// (mean offset ~1e6 with spread ~1e-3, where both algorithms lose digits
// to cancellation).
func checkMergeMatchesAdd(t *testing.T, xs []float64, chunks [][]float64) {
	t.Helper()
	var want Summary
	addAll(&want, xs)
	var got Summary
	for _, chunk := range chunks {
		var part Summary
		addAll(&part, chunk)
		got.Merge(&part)
	}
	if got.N() != want.N() {
		t.Fatalf("N = %d, want %d", got.N(), want.N())
	}
	if got.Min() != want.Min() || got.Max() != want.Max() {
		t.Errorf("min/max = %v/%v, want %v/%v", got.Min(), got.Max(), want.Min(), want.Max())
	}
	if u := ulpsApart(got.Mean(), want.Mean()); u > 16 {
		t.Errorf("mean %v vs %v: %d ULPs apart", got.Mean(), want.Mean(), u)
	}
	if want.N() >= 2 {
		relErr := math.Abs(got.Variance()-want.Variance()) /
			math.Max(want.Variance(), 1e-300)
		if want.Variance() == 0 {
			relErr = math.Abs(got.Variance())
		}
		if relErr > 1e-6 {
			t.Errorf("variance %v vs %v: rel err %g", got.Variance(), want.Variance(), relErr)
		}
	}
}

// TestMergeMatchesSingleStream is the property test for the replica
// engine's reduction: merging per-replica summaries must agree with one
// summary fed the concatenated observations.
func TestMergeMatchesSingleStream(t *testing.T) {
	src := rng.New(2024)
	for trial := 0; trial < 200; trial++ {
		n := 1 + src.Intn(400)
		xs := make([]float64, n)
		// Mix scales and signs, including an offset far from zero — the
		// regime where naive sum-of-squares variance loses digits.
		offset := (src.Float64() - 0.5) * 1e6
		scale := math.Pow(10, float64(src.Intn(7))-3)
		for i := range xs {
			xs[i] = offset + (src.Float64()-0.5)*scale
		}
		// Random partition into 1..8 chunks, some possibly empty.
		k := 1 + src.Intn(8)
		chunks := make([][]float64, k)
		for _, x := range xs {
			c := src.Intn(k)
			chunks[c] = append(chunks[c], x)
		}
		checkMergeMatchesAdd(t, xs, chunks)
	}
}

// TestMergeEdgeCases covers the empty and single-observation summaries
// the replica engine produces at R = 1 and for metrics a replica never
// emitted.
func TestMergeEdgeCases(t *testing.T) {
	// Merging an empty summary is a no-op.
	var s, empty Summary
	addAll(&s, []float64{1, 2, 3})
	before := s
	s.Merge(&empty)
	if s != before {
		t.Errorf("merging an empty summary changed %v to %v", before, s)
	}
	// Merging into an empty summary copies bit-for-bit.
	var dst Summary
	dst.Merge(&before)
	if dst != before {
		t.Errorf("merge into empty: %v, want %v", dst, before)
	}
	// Two empties stay empty.
	var a, b Summary
	a.Merge(&b)
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 {
		t.Errorf("empty+empty is not empty: %v", a)
	}
	// A chain of single-observation summaries must agree with Add exactly
	// on the mean when the values coincide (the R=1 byte-compat lever).
	var one Summary
	one.Add(3.141592653589793)
	var merged Summary
	merged.Merge(&one)
	if merged.Mean() != 3.141592653589793 || merged.N() != 1 {
		t.Errorf("single-value merge: mean %v n %d", merged.Mean(), merged.N())
	}
	// Singles vs stream, exact partition check.
	xs := []float64{1e9, -1e9, 2.5, 1e-9, 7}
	chunks := make([][]float64, len(xs))
	for i, x := range xs {
		chunks[i] = []float64{x}
	}
	checkMergeMatchesAdd(t, xs, chunks)
}
