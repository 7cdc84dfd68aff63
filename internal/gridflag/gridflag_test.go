package gridflag

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"mfdl/internal/runner/diskcache"
)

func TestGridBroadcastsAndRejects(t *testing.T) {
	g, err := Grid("p, rho", "0.1", "0.9,1", "2")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0.1, 0.5, 0.9}, {0.1, 0.55, 1}}
	for i, d := range g.Dims() {
		if !reflect.DeepEqual(d.Values, want[i]) {
			t.Errorf("dim %s = %v, want %v (one -from/-steps value broadcast to both)", d.Name, d.Values, want[i])
		}
	}
	for _, c := range [][4]string{
		{"p", "NaN", "1", "2"},       // non-finite bound
		{"p", "0", "+Inf", "2"},      // non-finite bound
		{"p", "0", "Infinity", "2"},  // non-finite bound
		{"p", "zero", "1", "2"},      // unparsable
		{"p", "1", "0.5", "2"},       // from > to
		{"p", "0", "1", "0"},         // steps < 1
		{"p,rho", "0", "1", "3,0"},   // steps < 1 on one axis
		{"p,rho", "0,0,0", "1", "2"}, // arity mismatch
		{"p", "", "1", "2"},          // empty list
		{"p", "0", "1", "1.5"},       // non-integer steps
	} {
		if _, err := Grid(c[0], c[1], c[2], c[3]); err == nil {
			t.Errorf("Grid%q accepted", c)
		}
	}
}

func TestListAndFinite(t *testing.T) {
	if v, err := List("ps", " "); err != nil || v != nil {
		t.Errorf("blank list = %v, %v; want empty", v, err)
	}
	if v, err := List("ps", "0.5, 0.9"); err != nil || !reflect.DeepEqual(v, []float64{0.5, 0.9}) {
		t.Errorf("List = %v, %v", v, err)
	}
	for _, s := range []string{"0.5,NaN", "-Inf", "0.5,,0.9", "x"} {
		if _, err := List("ps", s); err == nil || !strings.Contains(err.Error(), "-ps") {
			t.Errorf("List(%q) = %v, want a named rejection", s, err)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.Float64("mu", 0.02, "")
	fs.Float64("eta", 0.5, "")
	if err := Finite(fs, "mu", "eta"); err != nil {
		t.Fatal(err)
	}
	fs.Set("eta", "NaN")
	if err := Finite(fs, "mu", "eta"); err == nil || !strings.Contains(err.Error(), "-eta") {
		t.Errorf("Finite = %v, want -eta rejected", err)
	}
}

// parseFlags registers a family on a fresh flag set and parses args.
func parseFlags(t *testing.T, register func(*flag.FlagSet), args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func TestFormatFamily(t *testing.T) {
	for _, ok := range []string{"ascii", "csv", "tsv", "markdown", "md"} {
		var f Format
		parseFlags(t, f.Register, "-format", ok)
		if err := f.Validate(); err != nil {
			t.Errorf("-format %s: %v", ok, err)
		}
	}
	var f Format
	parseFlags(t, f.Register)
	if f != "ascii" {
		t.Errorf("default format %q, want ascii", f)
	}
	parseFlags(t, f.Register, "-format", "xml")
	if err := f.Validate(); err == nil {
		t.Error("-format xml accepted")
	}
}

func TestReplicasFamily(t *testing.T) {
	// Defaults are the struct's values at Register time.
	r := Replicas{Seed: 7, Replicas: 1, ReplicasMax: 64}
	parseFlags(t, r.Register)
	opts, err := r.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Seed != 7 || opts.Replicas != 1 || opts.ReplicasMax != 64 || opts.CITarget != 0 {
		t.Errorf("defaults became %+v", opts)
	}
	for _, args := range [][]string{
		{"-replicas", "0"},
		{"-replicas", "-2"},
		{"-ci-target", "NaN"},
		{"-ci-target", "+Inf"},
		{"-ci-target", "-1"},
		{"-replicas-max", "0"},
	} {
		r := Replicas{Replicas: 1, ReplicasMax: 64}
		parseFlags(t, r.Register, args...)
		if _, err := r.Options(); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("%v: %v, want a rejection naming the flag", args, err)
		}
	}
}

func TestStoreFamily(t *testing.T) {
	dir := t.TempDir()
	s := Store{Name: "sample"}
	parseFlags(t, func(fs *flag.FlagSet) { s.Register(fs, "samples") }, "-sample-dir", dir, "-sample-prune-size", "1")
	store, err := s.Samples("test", nil)
	if err != nil || store == nil {
		t.Fatalf("Samples() = %v, %v", store, err)
	}
	off := Store{Name: "sample"}
	if store, err := off.Samples("test", nil); err != nil || store != nil {
		t.Errorf("no -sample-dir: %v, %v; want no store", store, err)
	}
	for _, args := range [][]string{
		{"-cache-prune-age", "-1s", "-cache-dir", dir},
		{"-cache-prune-size", "-1", "-cache-dir", dir},
		{"-cache-prune-age", "1h"},
		{"-cache-prune-size", "10"},
	} {
		c := Store{Name: "cache"}
		parseFlags(t, func(fs *flag.FlagSet) { c.Register(fs, "cache") }, args...)
		if _, err := Open(&c, "test", diskcache.Open); err == nil || !strings.Contains(err.Error(), "-cache-") {
			t.Errorf("%v: %v, want a rejection naming the flags", args, err)
		}
	}
}

func TestFluidFamily(t *testing.T) {
	var f Fluid
	parseFlags(t, func(fs *flag.FlagSet) { f.Register(fs, "fluid: ") })
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Config.K != 10 || spec.P != 0.9 || spec.Config.Gamma != 0.05 || spec.Scheme != "CMFSD" || spec.Grid.Size() != 11 {
		t.Errorf("defaults lowered to %+v", spec)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f.Register(fs, "fluid: ")
	for name, prefixed := range map[string]bool{"dim": true, "scheme": true, "theta": true, "k": false, "lambda0": false} {
		if got := strings.HasPrefix(fs.Lookup(name).Usage, "fluid: "); got != prefixed {
			t.Errorf("-%s: prefixed %v, want %v", name, got, prefixed)
		}
	}
	for _, args := range [][]string{
		{"-scheme", "FTP"},
		{"-dim", "flux"},
		{"-k", "0"},
		{"-rho", "2"},
		{"-theta", "-1"},
		{"-dim", "k", "-from", "1", "-to", "2", "-steps", "4"},
	} {
		var f Fluid
		parseFlags(t, func(fs *flag.FlagSet) { f.Register(fs, "") }, args...)
		if _, err := f.Spec(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
