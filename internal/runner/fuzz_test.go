package runner

import (
	"encoding/json"
	"testing"
)

// FuzzFluidSweepSpec feeds hostile bytes to ParseJobSpec with the
// fluid-sweep kind registered. Whatever arrives: no panic; a spec that
// parses has between 0 and MaxJobCells cells; and its canonical encoding
// parses back to the same fingerprint.
func FuzzFluidSweepSpec(f *testing.F) {
	for _, s := range append(hugeFluidSpecs(), testJobSpec()) {
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
