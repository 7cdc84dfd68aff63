package scheme

import "testing"

// TestSimSchemeNumbering pins the shared numeric values: both simulators
// use these constants, so renumbering them would silently change any
// caller that stores scheme values numerically.
func TestSimSchemeNumbering(t *testing.T) {
	want := map[SimScheme]int{SimMTCD: 0, SimMTSD: 1, SimMFCD: 2, SimCMFSD: 3}
	for sc, n := range want {
		if int(sc) != n {
			t.Errorf("%v = %d, want %d", sc, int(sc), n)
		}
	}
	if len(SimSchemes) != len(want) {
		t.Fatalf("SimSchemes has %d entries, want %d", len(SimSchemes), len(want))
	}
}

func TestSimSchemeStringRoundTrip(t *testing.T) {
	for _, sc := range SimSchemes {
		got, err := ParseSim(sc.String())
		if err != nil || got != sc {
			t.Errorf("ParseSim(%q) = %v, %v; want %v", sc.String(), got, err, sc)
		}
	}
	if _, err := ParseSim("FTP"); err == nil {
		t.Error("ParseSim accepted an unknown name")
	}
	if s := SimScheme(42).String(); s != "SimScheme(42)" {
		t.Errorf("invalid String() = %q", s)
	}
}
