package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mfdl/internal/experiments"
	"mfdl/internal/fluid"
	"mfdl/internal/gridflag"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
)

// runAsSweepd makes the test binary stand in for the sweepd command, so
// the multi-process tests need no separate build.
const runAsSweepd = "SWEEPD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsSweepd) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-out, runErr
}

// sweepTable renders the plain local sweep of sweepd's default model over
// a p × rho grid — what `sweep` prints for the same flags.
func sweepTable(t *testing.T, steps, format string) string {
	t.Helper()
	grid, err := gridflag.Grid("p,rho", "0.05", "1", steps)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Sweep(context.Background(), experiments.SweepSpec{
		Config: experiments.Config{Params: fluid.Params{Mu: 0.02, Eta: 0.5, Gamma: 0.05}, K: 10, Lambda0: 1},
		P:      0.9, Scheme: scheme.CMFSD, Grid: grid,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Table().Write(&buf, format); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The two-process smoke: `serve` on a free port with -addr-file, plus two
// `work -join` processes. The table is byte-identical to the local sweep,
// and all three processes exit 0 — including the worker still polling when
// the coordinator finishes and exits — on every one of five runs.
func TestTwoProcessSmoke(t *testing.T) {
	want := sweepTable(t, "9,3", "ascii")
	command := func(args ...string) (*exec.Cmd, *bytes.Buffer, *bytes.Buffer) {
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), runAsSweepd+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd, &stdout, &stderr
	}
	for run := 1; run <= 5; run++ {
		addrFile := filepath.Join(t.TempDir(), "addr")
		serve, table, serveErr := command("serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-dim", "p,rho", "-steps", "9,3", "-lease-cells", "4")
		var addr []byte
		for deadline := time.Now().Add(20 * time.Second); len(addr) == 0; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				serve.Process.Kill()
				t.Fatalf("run %d: serve never wrote its address:\n%s", run, serveErr)
			}
			addr, _ = os.ReadFile(addrFile)
		}
		type proc struct {
			name   string
			cmd    *exec.Cmd
			stderr *bytes.Buffer
		}
		procs := []proc{{"serve", serve, serveErr}}
		for _, name := range []string{"wa", "wb"} {
			cmd, _, stderr := command("work", "-join", "http://"+string(addr), "-name", name)
			procs = append(procs, proc{name, cmd, stderr})
		}
		for _, p := range procs {
			if err := p.cmd.Wait(); err != nil {
				t.Errorf("run %d: %s exited with %v:\n%s", run, p.name, err, p.stderr)
			}
		}
		if table.String() != want {
			t.Fatalf("run %d: distributed table differs from the local sweep:\n%s\nwant:\n%s", run, table, want)
		}
	}
}

// Every invalid value is an error before the campaign's listener opens:
// the address file is never written.
func TestServeRejectsBeforeListening(t *testing.T) {
	for _, args := range [][]string{
		{"extra"},
		{"-format", "xml"},
		{"-lease-target", "-1s"},
		{"-chaos-blackout", "2s"},
		{"-chaos-blackout", "x-2s"},
		{"-chaos-5xx", "1.5"},
		{"-job", "nope"},
		{"-dim", "flux"},
		{"-dim", "p,p"},
		{"-scheme", "FTP"},
		{"-steps", "0"},
		{"-from", "NaN"},
		{"-from", "1", "-to", "0.5"},
		{"-dim", "p,rho", "-from", "0,0,0"},
		{"-k", "0"},
		{"-mu", "NaN"},
		{"-gamma", "-1"},
		{"-job", "simvalidate", "-replicas", "0"},
		{"-job", "simvalidate", "-ci-target", "-1"},
		{"-job", "simvalidate", "-ci-target", "NaN"},
		{"-job", "simvalidate", "-replicas-max", "0"},
		{"-job", "simvalidate", "-ps", ""},
		{"-job", "simvalidate", "-ps", "0.5,NaN"},
		{"-job", "simvalidate", "-horizon", "-1"},
	} {
		addrFile := filepath.Join(t.TempDir(), "addr")
		err := run(append([]string{"serve", "-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...))
		if err == nil {
			t.Errorf("%v accepted", args)
		}
		if _, statErr := os.Stat(addrFile); !errors.Is(statErr, fs.ErrNotExist) {
			t.Errorf("%v: a listener opened before the error (%v)", args, err)
		}
	}
}

// `serve -job fluid` with in-process workers prints the local sweep's
// table, byte for byte.
func TestServeFluidMatchesSweep(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"serve", "-addr", "127.0.0.1:0", "-local-workers", "2",
			"-dim", "p,rho", "-steps", "4,3", "-format", "csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := sweepTable(t, "4,3", "csv"); out != want {
		t.Fatalf("served table differs from the local sweep:\n%s\nwant:\n%s", out, want)
	}
}

// ciTargetTable is what `serve -job simvalidate` prints at the flags of
// TestSimValidateCITargetMatchesLocal: which replicas a round serves must
// not move a byte of it.
const ciTargetTable = `# Fluid model vs flow-level simulation: average online time per file
scheme  p     rho  fluid  simulated  ±95%        rel err  completed
--------------------------------------------------------------------
MTSD    0.50  -    8      8.715      ±0.01897    8.9%     395      
MTCD    0.50  -    9.6    10.16      ±0.02237    5.8%     1603     
MFCD    0.50  -    9.6    10.13      ±0.01152    5.5%     390      
CMFSD   0.50  0.0  5.347  5.362      ±0.01993    0.3%     883      
CMFSD   0.50  0.5  6.872  6.869      ±0.01621    0.0%     1692     
CMFSD   0.50  1.0  9.6    9.607      ±0.01964    0.1%     1556     
MTSD    0.90  -    8      8.338      ±0.02925    4.2%     1368     
MTCD    0.90  -    9.778  10.21      ±0.01721    4.4%     1292     
MFCD    0.90  -    9.778  10.2       ±0.02115    4.3%     1335     
CMFSD   0.90  0.0  5.189  5.209      ±0.003396   0.4%     418      
CMFSD   0.90  0.5  6.779  6.771      ±0.00268    0.1%     371      
CMFSD   0.90  1.0  9.778  9.799      ±0.01653    0.2%     305      
`

// Local and distributed sequential stopping are one executor: `serve -job
// simvalidate -ci-target` prints exactly the table mfdl simvalidate's code
// path prints at the same seed, replicas, target and bound, with rows that
// stop at different replica counts. Every round leases only the replicas
// it adds, so no cell is resumed from the sample store and both sides
// simulate and store each of the 62 replicas once.
func TestSimValidateCITargetMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	out, err := capture(t, func() error {
		return run([]string{"serve", "-addr", "127.0.0.1:0", "-job", "simvalidate", "-local-workers", "2",
			"-mu", "0.2", "-gamma", "0.5", "-horizon", "300", "-warmup", "50",
			"-seed", "7", "-replicas", "2", "-replicas-max", "8", "-ci-target", "0.02",
			"-sample-dir", filepath.Join(dir, "served"), "-metrics-out", metrics})
	})
	if err != nil {
		t.Fatal(err)
	}

	// mfdl simvalidate: experiments.SimValidate over its flags' settings.
	store, err := diskcache.OpenSamples(filepath.Join(dir, "local"))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	store.WithObs(reg)
	set := experiments.SimSettings{
		Params: fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5}, K: 10, Lambda0: 1,
		Horizon: 300, Warmup: 50,
		Options: experiments.Options{Seed: 7, Replicas: 2, ReplicasMax: 8, CITarget: 0.02, Samples: store, Obs: reg},
	}
	ps := []float64{0.5, 0.9}
	res, err := experiments.SimValidate(context.Background(), set, ps)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := res.Table().Write(&want, "ascii"); err != nil {
		t.Fatal(err)
	}
	if out != want.String() {
		t.Fatalf("distributed table differs from the local one:\n%s\nwant:\n%s", out, want.String())
	}
	if out != ciTargetTable {
		t.Fatalf("served table differs from the recorded one:\n%s\nwant:\n%s", out, ciTargetTable)
	}

	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Counters map[string]float64 }
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"fabric_cells_completed_total": 62,
		"fabric_cells_resumed_total":   0,
		"samplestore_stores_total":     62,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("served run: %s = %v, want %v", name, got, want)
		}
	}
	if n := reg.Counter("samplestore_stores_total").Value(); n != 62 {
		t.Errorf("local run stored %d samples, want 62", n)
	}

	// The rows really stopped apart (replayed from the local store).
	plan, err := experiments.PlanSimValidate(set, ps)
	if err != nil {
		t.Fatal(err)
	}
	aggs, err := sim.RunRounds(context.Background(), plan.Spec,
		sim.Stopping{Metric: replica.OnlinePerFile, Target: 0.02, MaxReplicas: 8}, nil,
		func(ctx context.Context, round runner.JobSpec) ([][]byte, error) {
			return runner.RunJobPayloads(ctx, round, runner.JobEnv{Samples: store}, runner.Options{})
		})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]bool{}
	total := 0
	for _, agg := range aggs {
		counts[agg.Replicas] = true
		total += agg.Replicas
	}
	if len(counts) < 2 {
		t.Errorf("every row stopped at the same replica count %v; the test needs rows that stop apart", counts)
	}
	if total != 62 {
		t.Errorf("rows spent %d replicas, want 62", total)
	}
}
