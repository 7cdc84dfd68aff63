package replica

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"mfdl/internal/stats"
)

// TestSampleRoundTripExactBits is the wire format's core guarantee: every
// float — including NaN and ±Inf, which plain JSON rejects — survives
// encode/decode bit-exactly, and summaries carry their full Welford state.
func TestSampleRoundTripExactBits(t *testing.T) {
	var sum stats.Summary
	sum.Add(0.1)
	sum.Add(0.2)
	sum.Add(-3.5)
	want := Sample{
		Values: map[string]float64{
			"nan":  math.NaN(),
			"pinf": math.Inf(1),
			"ninf": math.Inf(-1),
			"pi":   math.Pi,
			"zero": 0,
			"neg0": math.Copysign(0, -1),
		},
		Counts:    map[string]float64{"n": 41, "tiny": 1e-300},
		Summaries: map[string]stats.Summary{"s": sum},
	}
	data, err := EncodeSample(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSample(data)
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range want.Values {
		g, ok := got.Values[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Errorf("Values[%q] = %x, want %x", k, math.Float64bits(g), math.Float64bits(w))
		}
	}
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("Counts = %v, want %v", got.Counts, want.Counts)
	}
	gotSum := got.Summaries["s"]
	gn, gm, g2, gmin, gmax := gotSum.State()
	wn, wm, w2, wmin, wmax := sum.State()
	if gn != wn || math.Float64bits(gm) != math.Float64bits(wm) ||
		math.Float64bits(g2) != math.Float64bits(w2) ||
		math.Float64bits(gmin) != math.Float64bits(wmin) ||
		math.Float64bits(gmax) != math.Float64bits(wmax) {
		t.Errorf("summary state (%d %v %v %v %v), want (%d %v %v %v %v)",
			gn, gm, g2, gmin, gmax, wn, wm, w2, wmin, wmax)
	}
}

// Equal samples encode to equal bytes — the property the sample store and
// the fabric checkpoint layer rely on for identity.
func TestSampleEncodingIsCanonical(t *testing.T) {
	mk := func() Sample {
		return Sample{
			Values: map[string]float64{"b": 2, "a": 1, "c": 3},
			Counts: map[string]float64{"z": 9, "y": 8},
		}
	}
	a, err := EncodeSample(mk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSample(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("encodings differ:\n%s\n%s", a, b)
	}
}

// Empty maps are omitted on the wire and come back nil, so an
// encode/decode cycle never turns an absent map into an empty one.
func TestSampleEmptyMapsStayNil(t *testing.T) {
	data, err := EncodeSample(Sample{Values: map[string]float64{}, Counts: nil})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "values") || strings.Contains(string(data), "counts") {
		t.Fatalf("empty maps serialized: %s", data)
	}
	got, err := DecodeSample(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Values != nil || got.Counts != nil || got.Summaries != nil {
		t.Fatalf("decoded empty sample has non-nil maps: %+v", got)
	}
}

func TestSampleDecodeRejections(t *testing.T) {
	for name, data := range map[string][]byte{
		"garbage":       []byte("not json {{{"),
		"wrong-schema":  []byte(`{"schema":999}`),
		"zero-schema":   []byte(`{}`),
		"bad-bits":      []byte(`{"schema":1,"values":{"x":"zzzz"}}`),
		"numeric-float": []byte(`{"schema":1,"values":{"x":1.5}}`),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeSample(data); err == nil {
				t.Fatalf("DecodeSample(%s) accepted", data)
			}
		})
	}
}

// SeedOf must agree with Seeds at every (cell, replica) index — it is the
// same derivation computed standalone, and the fabric depends on that to
// hand out single replicas.
func TestSeedOfMatchesSeeds(t *testing.T) {
	const cells, r = 5, 7
	for _, base := range []uint64{0, 1, 42, ^uint64(0)} {
		grid := Seeds(base, cells, r)
		for i := 0; i < cells; i++ {
			for j := 0; j < r; j++ {
				if got := SeedOf(base, i, j); got != grid[i][j] {
					t.Errorf("SeedOf(%d, %d, %d) = %#x, want %#x", base, i, j, got, grid[i][j])
				}
			}
		}
	}
}

func TestSeedOfPanicsOnNegativeIndex(t *testing.T) {
	for _, tc := range []struct{ cell, rep int }{{-1, 0}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SeedOf(1, %d, %d) did not panic", tc.cell, tc.rep)
				}
			}()
			SeedOf(1, tc.cell, tc.rep)
		}()
	}
}
