package runner

import (
	"context"
	"encoding/json"
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

// Params in any form but the compact one Canonical renders would hash to
// another fingerprint after one trip through Canonical, so parsing refuses
// them.
func TestParseJobSpecRejectsNonCanonicalParams(t *testing.T) {
	data, err := testJobSpec().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	data = append(data[:len(data)-1], []byte(`,"params":{ "a":1}}`)...)
	if _, err := ParseJobSpec(data); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Fatalf("ParseJobSpec(%s) = %v, want a canonical-form error", data, err)
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

// hugeFluidSpecs are 7 KB fluid-sweep specs whose grids overflow an int:
// the eight key dims at 256 values each multiply to 2^64, which wrapped to
// 0 cells, and with the last at 128 to 2^63, which wrapped to math.MinInt,
// a length fabric.NewCoordinator then allocated its cell states with.
func hugeFluidSpecs() []JobSpec {
	var specs []JobSpec
	for _, last := range []int{256, 128} {
		s := testJobSpec()
		s.Dims = nil
		for i, name := range KeyDims {
			values := make([]float64, 256)
			if i == len(KeyDims)-1 {
				values = values[:last]
			}
			for j := range values {
				values[j] = float64(j + 1)
			}
			s.Dims = append(s.Dims, Dim{Name: name, Values: values})
		}
		specs = append(specs, s)
	}
	return specs
}

// A grid whose size overflows an int, or a fluid-sweep job past
// MaxJobCells, is refused on every path in: NewGrid, Validate and
// ParseJobSpec.
func TestJobCellsBounded(t *testing.T) {
	for _, s := range hugeFluidSpecs() {
		if _, err := NewGrid(s.Dims...); err == nil {
			t.Errorf("NewGrid accepted %d dims whose sizes overflow an int", len(s.Dims))
		}
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if spec, err := ParseJobSpec(data); err == nil {
			t.Errorf("a %d-byte spec whose grid overflows an int parsed to %d cells", len(data), spec.job.Cells)
		}
	}
	s := testJobSpec()
	s.Dims = []Dim{{Name: "p", Values: make([]float64, 1024)}, {Name: "rho", Values: make([]float64, 1024)}}
	if n, err := s.CellCount(); err != nil || n != MaxJobCells {
		t.Fatalf("a job of exactly MaxJobCells cells: %d cells, %v", n, err)
	}
	s.Dims[1].Values = make([]float64, 1025)
	if err := s.Validate(); err == nil {
		t.Errorf("a job of %d cells validated, past the cap of %d", 1024*1025, MaxJobCells)
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
