package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"mfdl/internal/adapt"
	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/swarm"
	"mfdl/internal/table"
)

// goldenSettings are the exact settings the pre-refactor tables in
// testdata/ were captured at. Do not change them: the golden files pin
// the promise that Replicas = 1 reproduces the unreplicated experiment
// output byte-for-byte across the replica-engine refactor.
func goldenSettings() SimSettings {
	return SimSettings{
		Params:  fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5},
		K:       10,
		Lambda0: 1,
		Horizon: 1500,
		Warmup:  300,
		Options: Options{Seed: 7},
	}
}

// render draws a table the way the golden capture did.
func render(t *testing.T, tb *table.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.Write(&buf, "ascii"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// checkGolden compares got against testdata/<name> byte-for-byte.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s: output diverged from pre-refactor golden\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestSimValidateGolden(t *testing.T) {
	res, err := SimValidate(context.Background(), goldenSettings(), []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_simvalidate.txt", render(t, res.Table()))
}

func TestAdaptSweepGolden(t *testing.T) {
	ac := adaptGoldenConfig()
	res, err := AdaptSweep(context.Background(), goldenSettings(), 0.9, ac, []float64{0, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_adaptsweep.txt", render(t, res.Table()))
}

func TestSwarmCompareGolden(t *testing.T) {
	base := swarm.DefaultConfig
	base.Horizon = 800
	base.Warmup = 200
	base.Seed = 7
	res, err := SwarmCompare(context.Background(), base, []float64{0, 1}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_swarmcompare.txt", render(t, res.Table()))
}

func TestTransientGolden(t *testing.T) {
	set := goldenSettings()
	set.Horizon = 150
	res, err := Transient(context.Background(), set, 0.9, 0, 300)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_transient.txt", render(t, res.Table()))
}

func TestHeteroGolden(t *testing.T) {
	res, err := Hetero(context.Background(), goldenSettings(), 2, heteroGoldenClasses())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_hetero.txt", render(t, res.Table()))
}

func TestAdaptParamsGolden(t *testing.T) {
	set := goldenSettings()
	set.Horizon = 600
	set.Warmup = 150
	res, err := AdaptParams(context.Background(), set, 0.9, 0.8,
		[]float64{0.1, 0.25}, []float64{0.2}, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_adaptparams.txt", render(t, res.Table()))
}

// replicatedCase is one simulator-backed experiment rendered from a
// SimSettings. job marks the experiments that run their grid as a
// sim-replica job at the settings' workers and sample store; their cells
// × R replicas reach the store.
type replicatedCase struct {
	name  string
	job   bool
	cells int
	run   func(ctx context.Context, set SimSettings) (*table.Table, error)
}

// replicatedCases are the simulator-backed experiments at the golden
// operating points. SwarmCompare takes its horizon, seed, replica count and
// registry from the settings.
func replicatedCases() []replicatedCase {
	return []replicatedCase{
		{"simvalidate", true, 6, func(ctx context.Context, set SimSettings) (*table.Table, error) {
			res, err := SimValidate(ctx, set, []float64{0.9})
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{"adaptsweep", true, 2, func(ctx context.Context, set SimSettings) (*table.Table, error) {
			res, err := AdaptSweep(ctx, set, 0.9, adaptGoldenConfig(), []float64{0, 0.8})
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{"adaptparams", true, 4, func(ctx context.Context, set SimSettings) (*table.Table, error) {
			res, err := AdaptParams(ctx, set, 0.9, 0.8, []float64{0.1, 0.25}, []float64{0.2}, []float64{10})
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{"hetero", true, 1, func(ctx context.Context, set SimSettings) (*table.Table, error) {
			res, err := Hetero(ctx, set, 2, heteroGoldenClasses())
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{"swarmcompare", false, 4, func(ctx context.Context, set SimSettings) (*table.Table, error) {
			base := swarm.DefaultConfig
			base.Horizon, base.Warmup, base.Seed = int(set.Horizon), int(set.Warmup), set.Seed
			res, err := SwarmCompare(ctx, base, []float64{0, 1}, set.Replicas, set.Obs)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
		{"transient", false, 1, func(ctx context.Context, set SimSettings) (*table.Table, error) {
			set.Horizon = 150
			res, err := Transient(ctx, set, 0.9, 0, 300)
			if err != nil {
				return nil, err
			}
			return res.Table(), nil
		}},
	}
}

// shortReplicated is goldenSettings at a short horizon with r replicas.
func shortReplicated(r int) SimSettings {
	set := goldenSettings()
	set.Horizon = 400
	set.Warmup = 100
	set.Replicas = r
	return set
}

// TestReplicatedGoldens pins R = 3 tables. At R = 1 every cell's only
// replica runs at the base seed, so the R = 1 goldens cannot see a slip in
// the seeding of replicas >= 1 or in how the engine merges them; these can.
func TestReplicatedGoldens(t *testing.T) {
	for _, tc := range replicatedCases() {
		t.Run(tc.name, func(t *testing.T) {
			tb, err := tc.run(context.Background(), shortReplicated(3))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "golden_r3_"+tc.name+".txt", render(t, tb))
		})
	}
}

// TestSimValidateReplicatedDeterminism is the acceptance check for the
// replica engine at R > 1: the full rendered table of every experiment
// that runs its grid as a sim-replica job, confidence columns included,
// must be byte-identical at every worker count.
func TestSimValidateReplicatedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("replicated determinism check is slow")
	}
	for _, tc := range replicatedCases() {
		if !tc.job {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			run := func(workers int) string {
				set := shortReplicated(4)
				set.Workers = workers
				tb, err := tc.run(context.Background(), set)
				if err != nil {
					t.Fatal(err)
				}
				return render(t, tb)
			}
			want := run(1)
			got := run(8)
			if got != want {
				t.Errorf("R=4 table differs between workers=1 and workers=8\n--- workers=8 ---\n%s--- workers=1 ---\n%s", got, want)
			}
			if !bytes.Contains([]byte(want), []byte("±")) {
				t.Errorf("replicated table carries no ± column:\n%s", want)
			}
		})
	}
}

// TestReplicatedExperimentsReplaySamples checks that the experiments honour
// Options.Samples: a second identical run over the same store replays every
// replica (cells × R hits), stores nothing new and prints the same table.
func TestReplicatedExperimentsReplaySamples(t *testing.T) {
	for _, tc := range replicatedCases() {
		if !tc.job {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			store, err := diskcache.OpenSamples(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.New()
			store.WithObs(reg)
			hits, stores := reg.Counter("samplestore_hits_total"), reg.Counter("samplestore_stores_total")
			set := shortReplicated(2)
			set.Samples = store
			first, err := tc.run(context.Background(), set)
			if err != nil {
				t.Fatal(err)
			}
			if n := stores.Value(); n != uint64(tc.cells*2) {
				t.Fatalf("first run stored %d samples, want %d", n, tc.cells*2)
			}
			hitsBefore, storesBefore := hits.Value(), stores.Value()
			second, err := tc.run(context.Background(), set)
			if err != nil {
				t.Fatal(err)
			}
			if h, n := hits.Value()-hitsBefore, stores.Value()-storesBefore; h != uint64(tc.cells*2) || n != 0 {
				t.Fatalf("re-run: %d hits, %d new stores; want %d hits, 0 stores", h, n, tc.cells*2)
			}
			if a, b := render(t, first), render(t, second); a != b {
				t.Fatalf("replayed table differs\n--- first ---\n%s--- replay ---\n%s", a, b)
			}
		})
	}
}

// TestSimValidateReplicasExtend checks the seed-scheme promise at the
// experiment level: the first replica of every cell is the base-seed run,
// so the R = 2 mean moves from the R = 1 value only by adding replicas.
func TestSimValidateReplicasExtend(t *testing.T) {
	set := goldenSettings()
	set.Horizon = 400
	set.Warmup = 100
	one, err := SimValidate(context.Background(), set, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	set.Replicas = 2
	two, err := SimValidate(context.Background(), set, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Rows) != len(two.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(one.Rows), len(two.Rows))
	}
	for i := range one.Rows {
		r1, r2 := one.Rows[i], two.Rows[i]
		// The replicated mean averages the R=1 value with one extra
		// replica, so it must stay within the [min, max] envelope — here
		// checked loosely: same scheme labels and a positive CI.
		if r1.Scheme != r2.Scheme || r1.P != r2.P {
			t.Fatalf("row %d identity changed: %+v vs %+v", i, r1, r2)
		}
		if r2.SimCI95 < 0 {
			t.Errorf("row %d: negative CI %v", i, r2.SimCI95)
		}
		if r1.SimCI95 != 0 {
			t.Errorf("row %d: R=1 should report zero CI, got %v", i, r1.SimCI95)
		}
	}
}

// adaptGoldenConfig is the controller configuration the adapt golden was
// captured with.
func adaptGoldenConfig() adapt.Config {
	return adapt.Config{
		Lower:       -0.05,
		Upper:       0.05,
		StepUp:      0.2,
		StepDown:    0.1,
		Period:      5,
		InitialRho:  0,
		Consecutive: 2,
	}
}

// heteroGoldenClasses are the bandwidth classes the hetero golden was
// captured with.
func heteroGoldenClasses() []HeteroClass {
	return []HeteroClass{
		{Name: "broadband", Mu: 0.4, Weight: 4, Fraction: 0.3},
		{Name: "cable", Mu: 0.2, Weight: 2, Fraction: 0.4},
		{Name: "dsl", Mu: 0.1, Weight: 1, Fraction: 0.3},
	}
}
