package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mfdl/internal/golden"
)

// capture runs f with os.Stdout redirected and returns what it printed.
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
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String(), runErr
}

func TestRejectsMissingSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no subcommand accepted")
	}
}

func TestRejectsUnknownSubcommand(t *testing.T) {
	if err := run([]string{"fig9"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestRejectsExtraArgs(t *testing.T) {
	if err := run([]string{"fig2", "fig3"}); err == nil {
		t.Fatal("two subcommands accepted")
	}
}

func TestRejectsBadFlag(t *testing.T) {
	if err := run([]string{"-mu", "banana", "fig2"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestFig2Output(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-steps", "4", "fig2"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "98") {
		t.Fatalf("fig2 output wrong:\n%s", out)
	}
}

func TestFig2CSV(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-steps", "2", "-format", "csv", "fig2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "p,MTCD,MTSD") {
		t.Fatalf("csv header missing:\n%s", out)
	}
}

// The paper's printed fluid tables — every table 'all' prints, at the
// default flags — pinned byte for byte. They are re-derived from solves a
// disk cache keeps, so the golden moves only with that store's schema.
func TestAllCSVGolden(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-format", "csv", "all"}) })
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/golden_all.csv", out)
}

func TestValidateSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"validate"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Qiu") {
		t.Fatalf("validate output:\n%s", out)
	}
}

func TestParamsSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"params"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"K", "μ", "η", "γ", "ρ"} {
		if !strings.Contains(out, sym) {
			t.Fatalf("params missing %s:\n%s", sym, out)
		}
	}
}

func TestCrossoverSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"crossover"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "none in (0,1)") {
		t.Fatalf("crossover output:\n%s", out)
	}
}

func TestCheatingSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"cheating"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "cheater fraction") {
		t.Fatalf("cheating output:\n%s", out)
	}
}

func TestBadParamsSurface(t *testing.T) {
	// γ < μ breaks the closed forms — the error must reach the caller.
	if err := run([]string{"-gamma", "0.01", "fig2"}); err == nil {
		t.Fatal("γ<μ accepted")
	}
}

func TestFig3AndFig4Subcommands(t *testing.T) {
	for _, sub := range []string{"fig3", "fig4b", "fig4c", "stability"} {
		out, err := capture(t, func() error { return run([]string{sub}) })
		if err != nil {
			t.Fatalf("%s: %v", sub, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s produced nothing", sub)
		}
	}
}

func TestKScalingSubcommand(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"kscaling"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "gain") {
		t.Fatalf("kscaling output:\n%s", out)
	}
}

// reportFiles is report's listing in order, each file under the
// subcommand whose table it holds.
var reportFiles = []struct {
	sub   string
	files []string
}{
	{"validate", []string{"validate"}},
	{"fig2", []string{"fig2"}},
	{"fig3", []string{"fig3_p01", "fig3_p10"}},
	{"fig4a", []string{"fig4a"}},
	{"fig4b", []string{"fig4b"}},
	{"fig4c", []string{"fig4c"}},
	{"crossover", []string{"crossover"}},
	{"stability", []string{"stability"}},
	{"eta", []string{"eta_ablation"}},
	{"cheating", []string{"cheating"}},
	{"kscaling", []string{"kscaling"}},
}

// reportListing is the listing report prints for dir.
func reportListing(dir string) string {
	var sb strings.Builder
	for _, r := range reportFiles {
		for _, f := range r.files {
			sb.WriteString(filepath.Join(dir, f+".csv") + "\n")
		}
	}
	return sb.String()
}

func TestReportSubcommand(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error { return run([]string{"-out", dir, "report"}) })
	if err != nil {
		t.Fatal(err)
	}
	if want := reportListing(dir); out != want {
		t.Fatalf("report listing:\n%s\nwant:\n%s", out, want)
	}
}

func TestReportWritesAllArtifacts(t *testing.T) {
	dir := t.TempDir()
	out, err := capture(t, func() error { return run([]string{"-out", dir, "report"}) })
	if err != nil {
		t.Fatal(err)
	}
	files := strings.Fields(out)
	if len(files) != 12 {
		t.Fatalf("wrote %d artifacts, want 12", len(files))
	}
	for _, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() == 0 {
			t.Fatalf("%s is empty", f)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "p,MTCD,MTSD") {
		t.Fatalf("fig2.csv header missing:\n%s", data)
	}
}

// Every report CSV is the table its subcommand prints at the same flags,
// here at a non-default -steps that reaches every swept axis.
func TestReportMatchesSubcommands(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, func() error { return run([]string{"-steps", "6", "-out", dir, "report"}) }); err != nil {
		t.Fatal(err)
	}
	for _, r := range reportFiles {
		want, err := capture(t, func() error { return run([]string{"-steps", "6", "-format", "csv", r.sub}) })
		if err != nil {
			t.Fatalf("%s: %v", r.sub, err)
		}
		var got strings.Builder
		for _, f := range r.files {
			data, err := os.ReadFile(filepath.Join(dir, f+".csv"))
			if err != nil {
				t.Fatal(err)
			}
			got.Write(data)
			got.WriteString("\n")
		}
		if got.String() != want {
			t.Errorf("report's %v differ from mfdl -format csv %s:\n%s\nwant:\n%s", r.files, r.sub, got.String(), want)
		}
	}
}

// A second invocation with the same -cache-dir must reuse every solve
// from disk (0 solved) and print byte-identical tables.
func TestCacheDirAcrossInvocations(t *testing.T) {
	rerunSolvesNothing(t, "fig4b")
}

// simvalidate's fluid predictions go through mfdl's one solve cache: the
// first run solves and stores its 12 rows' models, and a rerun with the
// same -cache-dir reads them back. The time-rescaled validation point and
// a sample store keep both runs short.
func TestSimValidateCacheDirAcrossInvocations(t *testing.T) {
	first := rerunSolvesNothing(t, "-mu", "0.2", "-gamma", "0.5", "-sample-dir", t.TempDir(), "simvalidate")
	if !strings.Contains(first, "(12 stored, 0 corrupt, 0 evicted); 12 solved") {
		t.Fatalf("first run's -stats report:\n%s", first)
	}
}

// rerunSolvesNothing runs mfdl -stats args twice with one -cache-dir and
// demands byte-identical stdout and 0 solves on the second run. It
// returns the first run's stderr.
func rerunSolvesNothing(t *testing.T, args ...string) string {
	t.Helper()
	args = append([]string{"-cache-dir", t.TempDir(), "-stats"}, args...)
	first, firstErr := captureBoth(t, args)
	second, stderr := captureBoth(t, args)
	if second != first {
		t.Fatalf("cached rerun differs:\n%s\nvs\n%s", second, first)
	}
	if sub := args[len(args)-1]; !strings.Contains(stderr, "; 0 solved") || !strings.Contains(stderr, "mfdl: phase "+sub) {
		t.Fatalf("-stats report:\n%s", stderr)
	}
	return firstErr
}

// captureBoth runs mfdl args and returns what it printed to stdout and to
// stderr.
func captureBoth(t *testing.T, args []string) (stdout, stderr string) {
	t.Helper()
	oldErr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	stdout, runErr := capture(t, func() error { return run(args) })
	w.Close()
	os.Stderr = oldErr
	if runErr != nil {
		t.Fatal(runErr)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := r.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return stdout, sb.String()
}

func TestRejectsUnwritableCacheDir(t *testing.T) {
	if err := run([]string{"-cache-dir", "/dev/null/nope", "params"}); err == nil {
		t.Fatal("unwritable cache dir accepted")
	}
}

func TestRejectsInvalidReplicaFlags(t *testing.T) {
	cases := [][]string{
		{"-replicas", "0", "validate"},  // replicas must be >= 1
		{"-replicas", "-2", "validate"}, // negative replicas
		{"-workers", "-1", "validate"},  // negative workers
		{"-mu", "NaN", "validate"},      // non-finite model parameter
		{"-gamma", "-Inf", "validate"},  // non-finite model parameter
		{"-format", "pdf", "validate"},  // unknown format
		{"-steps", "0", "fig4a"},        // grid resolution must be >= 1
		{"-steps", "-3", "fig4a"},       // negative grid resolution
	}
	for i, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("case %d accepted: %v", i, args)
		}
	}
}
