package sim

import (
	"encoding/json"
	"testing"

	"mfdl/internal/runner"
)

// FuzzSimReplicaSpec feeds hostile bytes to runner.ParseJobSpec. On any
// sim-replica spec that parses: the executable-cell count is not negative;
// the canonical encoding parses back to the same fingerprint; and every
// executable cell draws a replica of its own grid cell, within
// [first, first + count). Listing the replicas costs their seed
// derivation, linear in the replica index, so that last check reads only
// specs small enough to list.
func FuzzSimReplicaSpec(f *testing.F) {
	spec, err := NewJobSpec(testJobCells(f), 7, 2)
	if err != nil {
		f.Fatal(err)
	}
	p, err := Params(spec)
	if err != nil {
		f.Fatal(err)
	}
	with := func(replicas int, counts, first []int) []byte {
		q := p
		q.Replicas, q.First = counts, first
		s := spec
		s.Replicas = replicas
		if s.Params, err = json.Marshal(q); err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	for _, seed := range [][]byte{
		with(2, nil, nil),                 // as NewJobSpec builds it
		with(0, []int{2, 5}, nil),         // per-cell counts
		with(0, []int{0, 4}, []int{2, 4}), // a later round
		with(1<<62, nil, nil),             // a replica total past the largest int
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := runner.ParseJobSpec(data)
		if err != nil || spec.Kind != JobKindSimReplica {
			return
		}
		n, err := spec.CellCount()
		if err != nil || n < 0 {
			t.Fatalf("parsed spec has %d cells (%v)", n, err)
		}
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatalf("canonical encoding of a parsed spec: %v", err)
		}
		again, err := runner.ParseJobSpec(canon)
		if err != nil || again.Fingerprint() != spec.Fingerprint() {
			t.Fatalf("canonical form parses to %q (%v), want fingerprint %q", again.Fingerprint(), err, spec.Fingerprint())
		}
		p, err := Params(spec)
		if err != nil {
			t.Fatal(err)
		}
		first := func(c int) int {
			if p.First == nil {
				return 0
			}
			return p.First[c]
		}
		count := func(c int) int {
			if p.Replicas == nil {
				return max(spec.Replicas, 1)
			}
			return p.Replicas[c]
		}
		for c := range p.Cells {
			if n > 1<<10 || first(c)+count(c) > 1<<10 {
				return
			}
		}
		reps, err := Reps(spec)
		if err != nil || len(reps) != n {
			t.Fatalf("Reps lists %d replicas for %d cells (%v)", len(reps), n, err)
		}
		for e, r := range reps {
			if r.Cell < 0 || r.Cell >= len(p.Cells) || r.Replica < first(r.Cell) || r.Replica >= first(r.Cell)+count(r.Cell) {
				t.Fatalf("executable cell %d draws %+v, outside its cell's [first, first+count)", e, r)
			}
		}
	})
}
