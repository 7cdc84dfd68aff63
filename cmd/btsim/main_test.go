package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mfdl/internal/golden"
)

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := f()
	w.Close()
	os.Stdout = old
	var sb strings.Builder
	buf := make([]byte, 8192)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String(), runErr
}

// fast shrinks horizons so CLI tests stay quick.
var fast = []string{"-horizon", "800", "-warmup", "200"}

func TestRunSubcommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run(append(fast, "-scheme", "MTSD", "run"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "avg online time per file") || !strings.Contains(out, "per-class") {
		t.Fatalf("run output:\n%s", out)
	}
}

func TestRunAllSchemes(t *testing.T) {
	for _, scheme := range []string{"MTCD", "MFCD", "CMFSD"} {
		if _, err := capture(t, func() error {
			return run(append(fast, "-scheme", scheme, "run"))
		}); err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
	}
}

func TestValidateSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run(append(fast, "validate")) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "rel err") || !strings.Contains(out, "CMFSD") {
		t.Fatalf("validate output:\n%s", out)
	}
}

func TestTransientSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run(append(fast, "transient")) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Flash crowd") {
		t.Fatalf("transient output:\n%s", out)
	}
}

func TestSwarmSubcommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-horizon", "600", "-warmup", "150", "swarm"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Chunk-level") || !strings.Contains(out, "MFCD") {
		t.Fatalf("swarm output:\n%s", out)
	}
}

// -workers reaches every simulated table, the chunk-level one included:
// with more cores than asked for, the pool still runs one worker.
func TestSwarmHonoursWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	if _, err := capture(t, func() error {
		return run([]string{"-workers", "1", "-metrics-out", metrics, "-horizon", "60", "-warmup", "10", "swarm"})
	}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct{ Gauges map[string]float64 }
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if got, ok := snap.Gauges["runner_workers"]; !ok || got != 1 {
		t.Errorf("runner_workers = %v (present %v), want -workers 1", got, ok)
	}
}

func TestRejections(t *testing.T) {
	cases := [][]string{
		nil,                         // missing subcommand
		{"explode"},                 // unknown subcommand
		{"-scheme", "FTP", "run"},   // unknown scheme
		{"-p", "2", "validate"},     // invalid correlation
		{"-mu", "nope", "validate"}, // unparsable flag
	}
	for i, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("case %d accepted: %v", i, args)
		}
	}
}

func TestHeteroSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run(append(fast, "hetero")) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "broadband") || !strings.Contains(out, "dsl") {
		t.Fatalf("hetero output:\n%s", out)
	}
}

func TestAdaptParamsSubcommand(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-horizon", "600", "-warmup", "150", "adaptparams"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "best setting") {
		t.Fatalf("adaptparams output:\n%s", out)
	}
}

func TestFlagRejections(t *testing.T) {
	cases := [][]string{
		{"-replicas", "0", "validate"},   // replicas must be >= 1
		{"-replicas", "-3", "validate"},  // negative replicas
		{"-workers", "-1", "validate"},   // negative workers
		{"-mu", "NaN", "validate"},       // non-finite model parameter
		{"-horizon", "+Inf", "validate"}, // non-finite horizon
		{"-format", "xml", "validate"},   // unknown format
	}
	for i, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("case %d accepted: %v", i, args)
		}
	}
}

func TestReplicatedValidate(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-horizon", "400", "-warmup", "100", "-replicas", "2", "validate"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "±95%") {
		t.Fatalf("replicated validate output carries no ±95%% column:\n%s", out)
	}
}

func TestReplicatedRun(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-horizon", "400", "-warmup", "100", "-replicas", "3", "-scheme", "MTSD", "run"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "R=3") || !strings.Contains(out, "±95%") {
		t.Fatalf("replicated run output:\n%s", out)
	}
}

// TestReplicatedRunGolden pins the `run` table at R = 3, where replicas
// 1 and 2 run at derived seeds rather than the base seed.
func TestReplicatedRunGolden(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-horizon", "400", "-warmup", "100", "-seed", "7",
			"-replicas", "3", "-rho", "0.5", "run"})
	})
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, filepath.Join("testdata", "golden_run_r3.txt"), out)
}

// TestRunWorkerInvariance checks the CLI-level determinism promise: same
// seed and replica count, different worker counts, identical bytes.
func TestRunWorkerInvariance(t *testing.T) {
	runAt := func(workers string) string {
		out, err := capture(t, func() error {
			return run([]string{"-horizon", "400", "-warmup", "100",
				"-replicas", "3", "-workers", workers, "validate"})
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if one, eight := runAt("1"), runAt("8"); one != eight {
		t.Fatalf("output differs between -workers 1 and -workers 8:\n%s\nvs\n%s", one, eight)
	}
}
