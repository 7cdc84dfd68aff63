package runner

import (
	"encoding/json"
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/scheme"
)

// FuzzFluidSweepSpec feeds hostile bytes to ParseJobSpec with the
// fluid-sweep kind registered. Whatever arrives: no panic; a spec that
// parses has between 0 and MaxJobCells cells; its first and last cells
// build their models (no solve); and its canonical encoding parses back to
// the same fingerprint.
func FuzzFluidSweepSpec(f *testing.F) {
	// Two specs parse must refuse: a k grid that lands on 1.25, which
	// SetKeyDim would round to 1, and ρ = 2, which no cell can solve.
	fractionalK, rhoTwo := testJobSpec(), testJobSpec()
	fractionalK.Base.Scheme = scheme.CMFSD
	fractionalK.Dims = []Dim{{Name: "k", Values: []float64{1, 1.25, 1.5, 1.75, 2}}}
	rhoTwo.Base.Scheme, rhoTwo.Base.Rho = scheme.CMFSD, 2
	// And one p = 0 spec per scheme, the single-torrent limit every scheme
	// accepts.
	seeds := append(hugeFluidSpecs(), testJobSpec(), fractionalK, rhoTwo)
	for _, sc := range scheme.Schemes {
		s := testJobSpec()
		s.Base.Scheme, s.Dims[0].Values[0] = sc, 0
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseJobSpec(data)
		if err != nil {
			return
		}
		n, err := spec.CellCount()
		if err != nil || n < 0 || n > MaxJobCells {
			t.Fatalf("parsed spec has %d cells (%v)", n, err)
		}
		g, err := spec.Grid()
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range []int{0, n - 1} {
			key, err := spec.CellKey(g.Point(cell))
			if err != nil {
				t.Fatal(err)
			}
			corr, err := correlation.New(key.K, key.P, key.Lambda0)
			if err != nil {
				t.Fatalf("cell %d of a parsed spec: %v", cell, err)
			}
			if _, err := scheme.New(key.Scheme, key.Params, corr, scheme.Options{Rho: key.Rho, Theta: key.Theta}); err != nil {
				t.Fatalf("cell %d of a parsed spec: %v", cell, err)
			}
		}
		canon, err := spec.Canonical()
		if err != nil {
			t.Fatalf("canonical encoding of a parsed spec: %v", err)
		}
		again, err := ParseJobSpec(canon)
		if err != nil || again.Fingerprint() != spec.Fingerprint() {
			t.Fatalf("canonical form parses to %q (%v), want fingerprint %q", again.Fingerprint(), err, spec.Fingerprint())
		}
	})
}
