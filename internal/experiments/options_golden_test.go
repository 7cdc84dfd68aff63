package experiments

import (
	"context"
	"testing"

	"mfdl/internal/runner"
	"mfdl/internal/scheme"
)

// Options is embedded, so a spec can name an option through the promoted
// selector (spec.Workers = 3) or inside an Options literal. Both reach the
// same field and must produce byte-identical tables.

func TestSweepOptionsSpellingGolden(t *testing.T) {
	g, err := runner.NewGrid(runner.Dim{Name: "rho", Values: runner.Linspace(0, 1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	promoted := SweepSpec{Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: g}
	promoted.Workers = 3
	literal := SweepSpec{
		Config: PaperConfig, P: 0.9, Scheme: scheme.CMFSD, Grid: g,
		Options: Options{Workers: 3},
	}
	var tables []string
	for _, spec := range []SweepSpec{promoted, literal} {
		res, err := Sweep(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, res.Table().String())
	}
	if tables[0] != tables[1] {
		t.Fatalf("Options spelling changed the sweep table:\n%s\nvs\n%s", tables[0], tables[1])
	}
}

func TestSimValidateOptionsSpellingGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation golden comparison")
	}
	base := DefaultSimSettings
	base.Horizon, base.Warmup = 600, 100
	promoted := base
	promoted.Seed, promoted.Replicas, promoted.Workers = 7, 2, 2
	literal := base
	literal.Options = Options{Seed: 7, Replicas: 2, Workers: 2}
	var tables []string
	for _, set := range []SimSettings{promoted, literal} {
		res, err := SimValidate(context.Background(), set, []float64{0.9})
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, res.Table().String())
	}
	if tables[0] != tables[1] {
		t.Fatalf("Options spelling changed the simulation table:\n%s\nvs\n%s", tables[0], tables[1])
	}
}

// DefaultSimSettings used to seed a deprecated SimSettings.Seed that
// overrode Options.Seed, so a copy with Options.Seed = 7 silently ran seed
// 1. There is one Seed now: the copy must equal an explicit seed-7 run and
// differ from the default's seed 1.
func TestDefaultSimSettingsSeedIsOverridable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation comparison")
	}
	run := func(set SimSettings) string {
		set.Horizon, set.Warmup = 600, 100
		res, err := SimValidate(context.Background(), set, []float64{0.9})
		if err != nil {
			t.Fatal(err)
		}
		return res.Table().String()
	}
	viaOptions := DefaultSimSettings
	viaOptions.Options.Seed = 7
	explicit := SimSettings{
		Params: DefaultSimSettings.Params, K: DefaultSimSettings.K, Lambda0: DefaultSimSettings.Lambda0,
		Options: Options{Seed: 7},
	}
	got := run(viaOptions)
	if want := run(explicit); got != want {
		t.Fatalf("Options.Seed = 7 on a DefaultSimSettings copy is not a seed-7 run:\n%s\nvs\n%s", got, want)
	}
	if got == run(DefaultSimSettings) {
		t.Fatal("Options.Seed = 7 on a DefaultSimSettings copy still runs the default seed 1")
	}
}
