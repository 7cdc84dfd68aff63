package rootfind

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBisectSqrt2(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	root, err := Bisect(f, 0, 2, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(root-math.Sqrt2) > 1e-10 {
		t.Fatalf("root = %v", root)
	}
}

func TestBisectEndpointRoot(t *testing.T) {
	f := func(x float64) float64 { return x }
	if r, err := Bisect(f, 0, 1, 1e-12); err != nil || r != 0 {
		t.Fatalf("r=%v err=%v", r, err)
	}
	if r, err := Bisect(f, -1, 0, 1e-12); err != nil || r != 0 {
		t.Fatalf("r=%v err=%v", r, err)
	}
}

func TestBisectNoBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Bisect(f, -1, 1, 1e-12); err != ErrNoBracket {
		t.Fatalf("err = %v", err)
	}
}

func TestBrentAgainstKnownRoots(t *testing.T) {
	cases := []struct {
		f    Func
		a, b float64
		want float64
	}{
		{func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{func(x float64) float64 { return math.Exp(x) - 5 }, 0, 3, math.Log(5)},
		{func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
	}
	for i, c := range cases {
		root, err := Brent(c.f, c.a, c.b, 1e-14)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(root-c.want) > 1e-9 {
			t.Fatalf("case %d: root = %v, want %v", i, root, c.want)
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	f := func(x float64) float64 { return 1 + x*x }
	if _, err := Brent(f, -1, 1, 1e-12); err != ErrNoBracket {
		t.Fatalf("err = %v", err)
	}
}

func TestBrentMatchesBisectProperty(t *testing.T) {
	// For monotone cubics with a root in the interval, Brent and Bisect
	// must agree.
	f := func(cRaw int8) bool {
		c := float64(cRaw%50) / 10
		fn := func(x float64) float64 { return x*x*x + x - c }
		a, b := -5.0, 5.0
		rBrent, err1 := Brent(fn, a, b, 1e-13)
		rBisect, err2 := Bisect(fn, a, b, 1e-13)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(rBrent-rBisect) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFindBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 0.37 }
	a, b, ok := FindBracket(f, 0, 1, 100)
	if !ok {
		t.Fatal("no bracket found")
	}
	if !(a <= 0.37 && 0.37 <= b) {
		t.Fatalf("bracket [%v, %v] misses root", a, b)
	}
	if _, _, ok := FindBracket(func(x float64) float64 { return 1 }, 0, 1, 10); ok {
		t.Fatal("bracket reported for rootless function")
	}
}
