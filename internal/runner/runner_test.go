package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mfdl/internal/rng"
)

func grid2x3(t *testing.T) Grid {
	t.Helper()
	g, err := NewGrid(
		Dim{Name: "p", Values: []float64{0.1, 0.9}},
		Dim{Name: "rho", Values: []float64{0, 0.5, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(Dim{Name: "", Values: []float64{1}}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewGrid(Dim{Name: "p", Values: nil}); err == nil {
		t.Fatal("empty values accepted")
	}
	if _, err := NewGrid(
		Dim{Name: "p", Values: []float64{1}},
		Dim{Name: "p", Values: []float64{2}},
	); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := Indexed("i", 0); err == nil {
		t.Fatal("empty indexed grid accepted")
	}
}

func TestGridEnumeration(t *testing.T) {
	g := grid2x3(t)
	if g.Size() != 6 {
		t.Fatalf("size = %d", g.Size())
	}
	// Row-major: last dimension fastest.
	wantVals := [][]float64{
		{0.1, 0}, {0.1, 0.5}, {0.1, 1},
		{0.9, 0}, {0.9, 0.5}, {0.9, 1},
	}
	for i := 0; i < g.Size(); i++ {
		p := g.Point(i)
		if p.Index != i {
			t.Fatalf("point %d has index %d", i, p.Index)
		}
		if !reflect.DeepEqual(p.Values(), wantVals[i]) {
			t.Fatalf("cell %d values %v, want %v", i, p.Values(), wantVals[i])
		}
		if v, ok := p.Value("rho"); !ok || v != wantVals[i][1] {
			t.Fatalf("cell %d rho = %v, %v", i, v, ok)
		}
		if _, ok := p.Value("nope"); ok {
			t.Fatal("unknown dimension resolved")
		}
	}
	if lbl := g.Point(4).Label(); lbl != "p=0.9 rho=0.5" {
		t.Fatalf("label %q", lbl)
	}
}

func TestLinspace(t *testing.T) {
	got := Linspace(0, 1, 4)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("linspace %v", got)
	}
	if got := Linspace(2, 2, 0); !reflect.DeepEqual(got, []float64{2, 2}) {
		t.Fatalf("degenerate linspace %v", got)
	}
}

// The engine's core promise: the same (seed, grid) yields bit-identical
// results at every worker count, even when the job consumes randomness.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	g, err := NewGrid(
		Dim{Name: "a", Values: Linspace(0, 1, 7)},
		Dim{Name: "b", Values: Linspace(0, 1, 7)},
	)
	if err != nil {
		t.Fatal(err)
	}
	job := func(ctx context.Context, p Point, src *rng.Source) (float64, error) {
		// Mix the swept values with draws from the per-cell stream.
		s := 0.0
		for i := 0; i < 100; i++ {
			s += src.Float64()
		}
		a, _ := p.Value("a")
		b, _ := p.Value("b")
		return a + 10*b + s, nil
	}
	var base []float64
	for _, workers := range []int{1, 2, 8} {
		got, err := Run(context.Background(), g, job, Options{Workers: workers, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("workers=%d diverged from workers=1", workers)
		}
	}
}

func TestRunSeedChangesStreams(t *testing.T) {
	g, err := Indexed("i", 4)
	if err != nil {
		t.Fatal(err)
	}
	job := func(ctx context.Context, p Point, src *rng.Source) (uint64, error) {
		return src.Uint64(), nil
	}
	a, err := Run(context.Background(), g, job, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), g, job, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical streams")
	}
	seen := map[uint64]bool{}
	for _, v := range a {
		if seen[v] {
			t.Fatal("two cells drew the same value from split streams")
		}
		seen[v] = true
	}
}

// When several cells fail, the reported error must be the lowest-indexed
// one — otherwise the error depends on scheduling.
func TestRunFirstErrorDeterministic(t *testing.T) {
	g, err := Indexed("i", 32)
	if err != nil {
		t.Fatal(err)
	}
	job := func(ctx context.Context, p Point, src *rng.Source) (int, error) {
		if p.Index%3 == 2 { // cells 2, 5, 8, ... fail
			return 0, fmt.Errorf("boom %d", p.Index)
		}
		return p.Index, nil
	}
	for _, workers := range []int{1, 8} {
		_, err := Run(context.Background(), g, job, Options{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "boom 2") {
			t.Fatalf("workers=%d: err = %v, want boom 2", workers, err)
		}
	}
}

func TestRunCancellation(t *testing.T) {
	g, err := Indexed("i", 1000)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	job := func(ctx context.Context, p Point, src *rng.Source) (int, error) {
		if started.Add(1) == 3 {
			cancel()
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
			return p.Index, nil
		}
	}
	startT := time.Now()
	_, runErr := Run(ctx, g, job, Options{Workers: 4})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
	if d := time.Since(startT); d > 2*time.Second {
		t.Fatalf("cancellation took %v", d)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("all %d cells ran despite cancellation", n)
	}
}

func TestRunHooks(t *testing.T) {
	g := grid2x3(t)
	var cells int
	var fails int
	_, err := Run(context.Background(), g, func(ctx context.Context, p Point, src *rng.Source) (int, error) {
		if p.Index == 3 {
			return 0, errors.New("bad cell")
		}
		return p.Index, nil
	}, Options{Workers: 2, Hooks: Hooks{
		OnCell: func(p Point, err error) {
			cells++
			if err != nil {
				fails++
			}
		},
	}})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if cells == 0 || fails == 0 {
		t.Fatalf("hooks saw %d cells, %d failures", cells, fails)
	}
}

func TestRunDefaultWorkerCount(t *testing.T) {
	g, err := Indexed("i", 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(context.Background(), g, func(ctx context.Context, p Point, src *rng.Source) (int, error) {
		return 2 * p.Index, nil
	}, Options{}) // Workers unset
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 2, 4}) {
		t.Fatalf("results %v", got)
	}
}
