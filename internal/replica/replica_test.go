package replica

import (
	"fmt"
	"reflect"
	"testing"
)

// TestSeedsScheme pins the seed-derivation contract DESIGN.md documents:
// replica 0 of every cell is the base seed, the columns are stable as R
// grows, and cells draw from independent split streams.
func TestSeedsScheme(t *testing.T) {
	const base = uint64(42)
	s8 := Seeds(base, 5, 8)
	for i, row := range s8 {
		if row[0] != base {
			t.Errorf("cell %d replica 0: seed %d, want base %d", i, row[0], base)
		}
	}
	// Growing R extends, never reshuffles: the R=4 table is the R=8
	// table's first four columns.
	s4 := Seeds(base, 5, 4)
	for i := range s4 {
		if !reflect.DeepEqual(s4[i], s8[i][:4]) {
			t.Errorf("cell %d: R=4 seeds %v != R=8 prefix %v", i, s4[i], s8[i][:4])
		}
	}
	// Same for growing the cell count.
	s3cells := Seeds(base, 3, 8)
	if !reflect.DeepEqual(s3cells, s8[:3]) {
		t.Errorf("cells=3 table is not a prefix of cells=5 table")
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
	other := Seeds(base+1, 5, 8)
	if reflect.DeepEqual(other, s8) {
		t.Errorf("base %d and %d derived identical seed tables", base, base+1)
	}
}

func TestSeedsPanics(t *testing.T) {
	for _, tc := range []struct{ cells, r int }{{-1, 1}, {1, 0}, {1, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Seeds(base, %d, %d) did not panic", tc.cells, tc.r)
				}
			}()
			Seeds(1, tc.cells, tc.r)
		}()
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
