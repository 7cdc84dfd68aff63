package replica

import (
	"fmt"
	"reflect"
	"testing"
)

// seedTable is the SeedOf table of cells × r replicas under base.
func seedTable(base uint64, cells, r int) [][]uint64 {
	out := make([][]uint64, cells)
	for i := range out {
		out[i] = make([]uint64, r)
		for j := range out[i] {
			out[i][j] = SeedOf(base, i, j)
		}
	}
	return out
}

// TestSeedsScheme pins the seed-derivation contract DESIGN.md documents:
// replica 0 of every cell is the base seed, the columns are stable as R
// grows, and cells draw from independent split streams.
func TestSeedsScheme(t *testing.T) {
	const base = uint64(42)
	s8 := seedTable(base, 5, 8)
	for i, row := range s8 {
		if row[0] != base {
			t.Errorf("cell %d replica 0: seed %d, want base %d", i, row[0], base)
		}
	}
	// Replica seeds j >= 1 must be distinct across the table (the split
	// streams are independent); collisions would correlate replicas.
	seen := map[uint64]string{}
	for i, row := range s8 {
		for j, seed := range row[1:] {
			at := fmt.Sprintf("[%d][%d]", i, j+1)
			if prev, ok := seen[seed]; ok {
				t.Errorf("seed %d appears at both %s and %s", seed, prev, at)
			}
			seen[seed] = at
		}
	}
	// A different base seed yields a different table.
	other := seedTable(base+1, 5, 8)
	if reflect.DeepEqual(other, s8) {
		t.Errorf("base %d and %d derived identical seed tables", base, base+1)
	}
}

func TestKeys(t *testing.T) {
	if got, want := ClassKey(3, OnlinePerFile), "class/3/online_per_file"; got != want {
		t.Errorf("ClassKey = %q, want %q", got, want)
	}
	if got, want := BandwidthKey("dsl", Completed), "bw/dsl/completed"; got != want {
		t.Errorf("BandwidthKey = %q, want %q", got, want)
	}
}
