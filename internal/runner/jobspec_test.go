package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"mfdl/internal/fluid"
	"mfdl/internal/rng"
	"mfdl/internal/scheme"
)

func testJobSpec() JobSpec {
	return JobSpec{
		Schema: JobSpecSchemaVersion,
		Kind:   JobKindFluidSweep,
		Base: Key{
			Scheme: scheme.MTCD, Params: fluid.PaperParams,
			K: 10, P: 0.9, Lambda0: 1.0,
		},
		Dims: []Dim{
			{Name: "p", Values: []float64{0.1, 0.5, 0.9}},
			{Name: "lambda0", Values: []float64{0.5, 2}},
		},
		Seed: 42,
	}
}

func TestJobSpecCanonicalRoundTrip(t *testing.T) {
	spec := testJobSpec()
	data, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJobSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	back.job = nil // the process-local handle is not part of the encoding
	if !reflect.DeepEqual(spec, back) {
		t.Fatalf("round trip changed the spec:\n  in  %+v\n  out %+v", spec, back)
	}
	if spec.Fingerprint() != back.Fingerprint() {
		t.Fatalf("fingerprint changed across the wire:\n  %s\n  %s",
			spec.Fingerprint(), back.Fingerprint())
	}
	again, err := back.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(again) {
		t.Fatalf("canonical encoding is not stable:\n  %s\n  %s", data, again)
	}
}

func TestJobSpecFingerprintSeparatesIdentity(t *testing.T) {
	base := testJobSpec()
	mutations := map[string]func(*JobSpec){
		"seed":      func(s *JobSpec) { s.Seed++ },
		"replicas":  func(s *JobSpec) { s.Replicas++ },
		"dim value": func(s *JobSpec) { s.Dims[0].Values[1] = 0.25 },
		"base":      func(s *JobSpec) { s.Base.K++ },
	}
	for name, mutate := range mutations {
		other := testJobSpec()
		mutate(&other)
		if base.Fingerprint() == other.Fingerprint() {
			t.Errorf("%s change did not change the fingerprint", name)
		}
	}
}

func TestJobSpecValidateRejects(t *testing.T) {
	cases := map[string]func(*JobSpec){
		"schema":      func(s *JobSpec) { s.Schema++ },
		"kind":        func(s *JobSpec) { s.Kind = "mystery" },
		"replicas":    func(s *JobSpec) { s.Replicas = -1 },
		"unknown dim": func(s *JobSpec) { s.Dims[0].Name = "zeta" },
		"dup dim":     func(s *JobSpec) { s.Dims[1].Name = s.Dims[0].Name },
		"empty dim":   func(s *JobSpec) { s.Dims[0].Values = nil },
		"nan value":   func(s *JobSpec) { s.Dims[0].Values[0] = nan() },
		"nan base":    func(s *JobSpec) { s.Base.Theta = nan() },
	}
	for name, mutate := range cases {
		spec := testJobSpec()
		mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", name)
		}
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestSetKeyDimUnknown(t *testing.T) {
	var key Key
	err := SetKeyDim(&key, "zeta", 1)
	if err == nil {
		t.Fatal("expected an error for an unknown dimension")
	}
	if !strings.Contains(err.Error(), `"zeta"`) || !strings.Contains(err.Error(), "lambda0") {
		t.Fatalf("unhelpful error: %v", err)
	}
}

// TestCellStreamMatchesRun pins the distribution contract: the standalone
// CellStream derivation hands cell i exactly the stream Run does, at any
// worker count.
func TestCellStreamMatchesRun(t *testing.T) {
	const seed = 99
	g, err := NewGrid(Dim{Name: "x", Values: []float64{1, 2, 3, 4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		got, err := Run(context.Background(), g,
			func(_ context.Context, _ Point, src *rng.Source) (uint64, error) {
				return src.Uint64(), nil
			}, Options{Seed: seed, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if want := CellStream(seed, i).Uint64(); v != want {
				t.Fatalf("workers=%d cell %d drew %d, CellStream gives %d", workers, i, v, want)
			}
		}
	}
}

// TestRunJobMatchesManualEvaluation checks RunJob against evaluating each
// cell by hand through CellKey — the job API computes the cells it claims.
func TestRunJobMatchesManualEvaluation(t *testing.T) {
	spec := testJobSpec()
	cells, err := RunJob(context.Background(), spec, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != g.Size() {
		t.Fatalf("got %d cells for a grid of %d", len(cells), g.Size())
	}
	cache := NewCache()
	for i := range cells {
		want, err := spec.EvaluateCell(cache, g.Point(i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cells[i], want) {
			t.Fatalf("cell %d: RunJob %+v, manual %+v", i, cells[i], want)
		}
	}
}
