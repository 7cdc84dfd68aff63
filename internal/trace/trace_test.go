package trace

import (
	"math"
	"testing"
)

func TestAppendOrdering(t *testing.T) {
	var s Series
	if err := s.Append(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(0.5, 3); err == nil {
		t.Fatal("time regression accepted")
	}
	// Equal time overwrites.
	if err := s.Append(1, 9); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.V[1] != 9 {
		t.Fatalf("overwrite failed: %+v", s)
	}
}

func TestAtInterpolation(t *testing.T) {
	s := Series{T: []float64{0, 10}, V: []float64{0, 100}}
	if got := s.At(5); math.Abs(got-50) > 1e-12 {
		t.Fatalf("At(5) = %v", got)
	}
	// Clamping.
	if s.At(-1) != 0 || s.At(11) != 100 {
		t.Fatal("clamping failed")
	}
	// Exact sample.
	if s.At(10) != 100 {
		t.Fatal("exact sample wrong")
	}
	var empty Series
	if !math.IsNaN(empty.At(1)) {
		t.Fatal("empty series should give NaN")
	}
}

func TestMaxAndFinal(t *testing.T) {
	s := Series{T: []float64{0, 1, 2}, V: []float64{3, 7, 5}}
	tm, vm := s.Max()
	if tm != 1 || vm != 7 {
		t.Fatalf("Max = (%v, %v)", tm, vm)
	}
	if s.Final() != 5 {
		t.Fatalf("Final = %v", s.Final())
	}
	var empty Series
	if _, v := empty.Max(); !math.IsNaN(v) {
		t.Fatal("empty Max should be NaN")
	}
	if !math.IsNaN(empty.Final()) {
		t.Fatal("empty Final should be NaN")
	}
}

func TestRMSDistance(t *testing.T) {
	a := &Series{T: []float64{0, 10}, V: []float64{0, 10}}
	b := &Series{T: []float64{0, 10}, V: []float64{1, 11}}
	d, err := RMSDistance(a, b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-9 {
		t.Fatalf("RMS = %v, want 1", d)
	}
	// Identical series have zero distance.
	d2, err := RMSDistance(a, a, 10)
	if err != nil || d2 != 0 {
		t.Fatalf("self distance %v, %v", d2, err)
	}
	// Non-overlapping ranges rejected.
	c := &Series{T: []float64{20, 30}, V: []float64{0, 0}}
	if _, err := RMSDistance(a, c, 10); err == nil {
		t.Fatal("non-overlapping accepted")
	}
	var empty Series
	if _, err := RMSDistance(a, &empty, 10); err == nil {
		t.Fatal("empty accepted")
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < 5; i++ {
		ti := float64(i)
		if err := r.Record("x", ti, ti*2); err != nil {
			t.Fatal(err)
		}
		if err := r.Record("y", ti, ti*ti); err != nil {
			t.Fatal(err)
		}
	}
	if r.Series("x").Len() != 5 || r.Series("missing") != nil {
		t.Fatal("series lookup wrong")
	}
	if x, y := r.Series("x").At(2), r.Series("y").At(2); x != 4 || y != 4 {
		t.Fatalf("x(2), y(2) = %v, %v, want 4, 4", x, y)
	}
}
