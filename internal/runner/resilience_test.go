package runner

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"mfdl/internal/rng"
)

// cleanJob is a deterministic job whose result depends on both the cell
// value and the cell's stream.
func cleanJob(_ context.Context, p Point, src *rng.Source) (float64, error) {
	v, _ := p.Value("i")
	return v + src.Float64(), nil
}

func indexedGrid(t *testing.T, n int) Grid {
	t.Helper()
	g, err := Indexed("i", n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestRunPanicBecomesCellError(t *testing.T) {
	g := indexedGrid(t, 8)
	_, err := Run(context.Background(), g,
		func(ctx context.Context, p Point, src *rng.Source) (float64, error) {
			if p.Index == 3 {
				panic("boom")
			}
			return cleanJob(ctx, p, src)
		}, Options{Workers: 4, Seed: 1})
	if err == nil {
		t.Fatal("panicking cell did not fail the run")
	}
	var pe *CellPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a CellPanicError: %v", err)
	}
	if pe.Value != "boom" || !strings.Contains(pe.Cell, "i=3") {
		t.Fatalf("wrong panic payload: cell %q value %v", pe.Cell, pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

// A failing cell runs once: a job error is taken at face value.
func TestRunDoesNotRetryPlainErrors(t *testing.T) {
	g := indexedGrid(t, 1)
	var attempts atomic.Int64
	_, err := Run(context.Background(), g,
		func(context.Context, Point, *rng.Source) (int, error) {
			attempts.Add(1)
			return 0, errors.New("deterministic failure")
		}, Options{Workers: 1})
	if err == nil {
		t.Fatal("want error")
	}
	if n := attempts.Load(); n != 1 {
		t.Fatalf("plain error was retried: attempts = %d", n)
	}
}
