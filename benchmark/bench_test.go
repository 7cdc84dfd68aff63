package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest is ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesDeclarations keeps BENCHMARK.json and the tables in
// metrics.go and workload.go saying the same thing.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the benchmark %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound || d.Bound > 0.25) {
				t.Errorf("%s %s: bound %v, the benchmark says %v (at most 0.25)", kind, d.Name, g.Bound, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, d.Name)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s %s: name malformed or used twice", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
}

// TestOnlyAdapterImportsInternal enforces the one-adapter-file rule.
func TestOnlyAdapterImportsInternal(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "mfdl/internal/") && name != "adapter.go" {
				t.Errorf("%s imports %s; only adapter.go may call into internal packages", name, imp.Path.Value)
			}
		}
	}
}

// fluidFingerprints lists the disk-cache fingerprint of every fluid cell
// the seed generates.
func fluidFingerprints(t *testing.T, in inputs) map[string]bool {
	t.Helper()
	fps := map[string]bool{}
	for _, g := range []struct {
		scheme string
		dims   []sweepDim
	}{{"CMFSD", fluidColdDims(in)}, {"MTCD", fluidWarmDims(in)}} {
		sw, err := newFluidSweep(g.scheme, g.dims, "", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < sw.size(); i++ {
			key, _, err := sw.cellKey(i)
			if err != nil {
				t.Fatal(err)
			}
			fps[keyFingerprint(key)] = true
		}
	}
	return fps
}

// TestSeeds: the same seed reproduces byte-identical inputs, and two seeds
// share no disk-cache fingerprint, so a cache left by one seed never serves
// another.
func TestSeeds(t *testing.T) {
	a, _ := json.Marshal(newInputs(1, 1))
	b, _ := json.Marshal(newInputs(1, 1))
	if string(a) != string(b) {
		t.Fatal("seed 1 generated two different input sets")
	}
	one, two := newInputs(1, 0.1), newInputs(2, 0.1)
	if one.SimSeed == two.SimSeed {
		t.Error("seeds 1 and 2 share a simulator base seed")
	}
	fps := fluidFingerprints(t, one)
	for fp := range fluidFingerprints(t, two) {
		if fps[fp] {
			t.Fatalf("seeds 1 and 2 share the disk-cache fingerprint %q", fp)
		}
	}
}

// TestClosedForm pins the harness's Eq. (2) to the two values the paper's
// text allows checking by hand: at K = 1 the multi-torrent model is the
// single-torrent one, T = (γ−μ)/(γμη) = 60 and T + 1/γ = 80.
func TestClosedForm(t *testing.T) {
	on, dl := mtcdClosedForm(0.02, 0.5, 0.05, 1, 1, 1)
	if relErr(on, 80) > 1e-12 || relErr(dl, 60) > 1e-12 {
		t.Fatalf("K=1: online %v download %v, want 80 and 60", on, dl)
	}
}

func buildBenchmark(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "benchmark")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs all five workloads at -scale 0.02 -reps 1 with tracing and
// checks that what BENCHMARK.json declares is what comes out: every
// workload, every end-to-end metric on every workload, every per-layer
// metric from its home workload, each finite, nothing undeclared, and no
// cell failed.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	bin := buildBenchmark(t)
	out := t.TempDir()
	cmd := exec.Command(bin, "-scale", "0.02", "-reps", "1", "-trace", "1", "-seconds", "0.1", "-out", out)
	if text, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("full report: %v\n%s", err, text)
	}
	data, err := os.ReadFile(filepath.Join(out, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep reportFile
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(m.Workloads) {
		t.Fatalf("report has %d workloads, BENCHMARK.json %d", len(rep.Workloads), len(m.Workloads))
	}
	finite := func(where, name string, s stat) {
		if math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			t.Errorf("%s: %s = %v is not finite", where, name, s.Median)
		}
	}
	declared := map[string]bool{}
	for _, d := range m.PerLayer {
		declared[d.Name] = true
	}
	some := map[string]bool{}
	for _, d := range endToEndSome {
		some[d.Name] = true
	}
	emitted := map[string]int{}
	for _, w := range m.Workloads {
		wr, ok := rep.Workloads[w.Name]
		if !ok || len(wr.Runs) != 1 || wr.Traced == nil {
			t.Fatalf("%s: missing from the report", w.Name)
		}
		run := wr.Runs[0]
		if run.Failed != 0 || wr.Traced.Failed != 0 || run.Metrics["fail_frac"].Median != 0 {
			t.Errorf("%s: %d + %d cells failed: %v %v", w.Name, run.Failed, wr.Traced.Failed, run.Notes, wr.Traced.Notes)
		}
		for _, d := range m.EndToEnd {
			s, ok := run.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s not emitted", w.Name, d.Name)
			}
			finite(w.Name, d.Name, s)
		}
		for name, s := range run.Metrics {
			finite(w.Name, name, s)
			known := some[name]
			for _, d := range m.EndToEnd {
				known = known || d.Name == name
			}
			if !known {
				t.Errorf("%s: undeclared end-to-end metric %s", w.Name, name)
			}
		}
		for name, s := range wr.Traced.Metrics {
			finite(w.Name, name, s)
			if !declared[name] {
				t.Errorf("%s: undeclared per-layer metric %s", w.Name, name)
			}
			emitted[name]++
		}
		if _, err := os.Stat(filepath.Join(out, w.Name+".trace.json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
	for _, d := range perLayer {
		want := 1
		if d.Home == "" {
			want = len(workloads) // measured on whichever workload is named
		}
		if emitted[d.Name] != want {
			t.Errorf("per-layer metric %s emitted %d times, want %d", d.Name, emitted[d.Name], want)
		}
	}
}

// TestDriverContract runs one workload the way the driver does and checks
// the shape of the last line: with --trace 0 exactly the end-to-end
// metrics, with --trace 1 exactly the per-layer metrics, whatever workload
// was named.
func TestDriverContract(t *testing.T) {
	m := readManifest(t)
	bin := buildBenchmark(t)
	for trace, want := range map[string][]manifestMetric{"0": m.EndToEnd, "1": m.PerLayer} {
		cmd := exec.Command(bin, "--workload", "fluid_warm", "--seed", "7", "--seconds", "0.1", "--trace", trace,
			"-scale", "0.02", "-out", t.TempDir())
		text, err := cmd.Output()
		if err != nil {
			t.Fatalf("--trace %s: %v", trace, err)
		}
		lines := strings.Split(strings.TrimSpace(string(text)), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("--trace %s: last line is not JSON: %v", trace, err)
		}
		if len(raw) != 4 {
			t.Errorf("--trace %s: last line has keys %v, want correct, attempted, failed, metrics", trace, raw)
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", trace, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("--trace %s: %d metrics, BENCHMARK.json declares %d", trace, len(line.Metrics), len(want))
		}
		for _, d := range want {
			v, ok := line.Metrics[d.Name]
			if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("--trace %s: metric %s = %+v (emitted %v), want a finite value in %s", trace, d.Name, v, ok, d.Unit)
			}
		}
	}
}
