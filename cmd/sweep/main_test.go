package main

import (
	"os"
	"strings"
	"testing"
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

func TestSweepRho(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-dim", "rho", "-from", "0", "-to", "1", "-steps", "2", "-scheme", "CMFSD", "-p", "0.9"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Sweep of rho") {
		t.Fatalf("output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // title, header, rule, 3 rows
		t.Fatalf("row count wrong:\n%s", out)
	}
}

func TestSweepEtaMTCD(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-dim", "eta", "-from", "0.3", "-to", "1", "-steps", "2", "-scheme", "MTCD"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "avg online/file") {
		t.Fatalf("output:\n%s", out)
	}
}

// p = 0 is an ordinary cell for every scheme: no user requests a second
// file, so each reads the single-torrent limit T + 1/γ online and T
// downloading per file — mfdl eta's p = 0 row, 140/80/60/50 over η.
func TestSweepSingleTorrentLimitAtPZero(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-dim", "eta,p", "-from", "0.25,0", "-to", "1,1", "-steps", "3,2",
			"-scheme", "MTCD", "-format", "csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"0.25,0,140,120", "0.5,0,80,60", "0.75,0,60,40", "1,0,50,30"} {
		if !strings.Contains(out, "\n"+row+"\n") {
			t.Errorf("MTCD η × p sweep lacks row %s:\n%s", row, out)
		}
	}
	for _, sc := range []string{"MTCD", "MTSD", "MFCD", "CMFSD"} {
		out, err := capture(t, func() error {
			return run([]string{"-dim", "p", "-from", "0", "-to", "1", "-steps", "4", "-scheme", sc, "-format", "csv"})
		})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if !strings.Contains(out, "\n0,80,60\n") {
			t.Errorf("%s at p = 0 is not 80 online, 60 download per file:\n%s", sc, out)
		}
	}
}

func TestSweepKDimension(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-dim", "k", "-from", "2", "-to", "6", "-steps", "2", "-scheme", "MTSD"})
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepLambda0Invariance(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-dim", "lambda0", "-from", "1", "-to", "10", "-steps", "1", "-scheme", "MTSD"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// MTSD online per file is 80 regardless of λ₀: both rows identical.
	if strings.Count(out, "80") < 2 {
		t.Fatalf("λ₀ sweep should be flat at 80:\n%s", out)
	}
}

func TestSweepRejections(t *testing.T) {
	cases := [][]string{
		{"-dim", "flux"},                        // unknown dimension
		{"-scheme", "FTP"},                      // unknown scheme
		{"-steps", "0"},                         // bad steps
		{"extra"},                               // positional arg
		{"-dim", "p", "-from", "2", "-to", "3"}, // p out of range
		{"-from", "1", "-to", "0.5"},            // inverted range
		{"-from", "NaN"},                        // non-finite bound
		{"-to", "+Inf"},                         // non-finite bound
		{"-from", "Infinity"},                   // non-finite bound
		{"-format", "xml"},                      // unknown format
		{"-workers", "-1"},                      // negative pool
		{"-dim", "p,rho", "-from", "0,0,0"},     // arity mismatch
		{"-dim", "p,p"},                         // duplicate dimension
		{"-dim", "p,rho", "-steps", "3,0"},      // bad steps on one axis
		{"-from", "zero"},                       // unparsable bound
		{"-fabric", "127.0.0.1:0"},              // removed: distribute with sweepd serve
		{"-retries", "1"},                       // removed: a cell is a pure function, a rerun replays its panic
		{"-rho", "2"},                           // ρ out of range
		// k = 1.25 is not a file count; SetKeyDim would round it to 1.
		{"-dim", "k", "-from", "1", "-to", "2", "-steps", "4"},
	}
	for i, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("case %d accepted: %v", i, args)
		}
	}
}

func TestSweepMultiDim(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-dim", "p,rho", "-from", "0.1,0", "-to", "0.9,1",
			"-steps", "2", "-scheme", "CMFSD"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Sweep of p,rho") {
		t.Fatalf("title wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3+9 { // title, header, rule, 3×3 cells
		t.Fatalf("row count wrong (%d lines):\n%s", len(lines), out)
	}
}

// The headline determinism guarantee, end to end through the CLI: the
// same grid must render byte-identically at every worker count.
func TestSweepWorkersByteIdentical(t *testing.T) {
	var base string
	for _, workers := range []string{"1", "4", "8"} {
		out, err := capture(t, func() error {
			return run([]string{"-dim", "p,rho", "-from", "0.1,0", "-to", "0.9,1",
				"-steps", "2,2", "-scheme", "CMFSD", "-workers", workers})
		})
		if err != nil {
			t.Fatal(err)
		}
		if base == "" {
			base = out
			continue
		}
		if out != base {
			t.Fatalf("-workers %s output differs:\n%s\nvs\n%s", workers, out, base)
		}
	}
}

func TestSweepBroadcastAndFormats(t *testing.T) {
	for _, format := range []string{"csv", "tsv", "markdown"} {
		out, err := capture(t, func() error {
			return run([]string{"-dim", "eta,rho", "-from", "0.4", "-to", "0.8",
				"-steps", "1", "-scheme", "CMFSD", "-format", format})
		})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !strings.Contains(out, "avg online/file") {
			t.Fatalf("%s output:\n%s", format, out)
		}
	}
}

// captureStderr runs f with os.Stderr redirected and returns what it
// printed there (the -stats / -progress channel).
func captureStderr(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	runErr := f()
	w.Close()
	os.Stderr = old
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

// The disk-cache acceptance bar, end to end through the CLI: a repeated
// run with -cache-dir must serve every solve from disk and still render a
// byte-identical table.
func TestSweepCacheDirByteIdenticalAndWarm(t *testing.T) {
	args := []string{"-dim", "p,rho", "-from", "0.3,0", "-to", "0.9,1",
		"-steps", "1,2", "-scheme", "CMFSD"}
	plain, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	cached := append(args, "-cache-dir", t.TempDir())
	cold, err := capture(t, func() error { return run(cached) })
	if err != nil {
		t.Fatal(err)
	}
	if cold != plain {
		t.Fatalf("cold cached output differs:\n%s\nvs\n%s", cold, plain)
	}
	var warm string
	stderr, err := captureStderr(t, func() error {
		var runErr error
		warm, runErr = capture(t, func() error { return run(append(cached, "-stats")) })
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm != plain {
		t.Fatalf("warm cached output differs:\n%s\nvs\n%s", warm, plain)
	}
	// Every cell decoded from disk, none re-solved.
	if !strings.Contains(stderr, "; 0 solved") || !strings.Contains(stderr, "disk") {
		t.Fatalf("warm -stats report:\n%s", stderr)
	}
	if !strings.Contains(stderr, "sweep: phase setup") {
		t.Fatalf("phase timings missing:\n%s", stderr)
	}
}

func TestSweepStatsWithoutCache(t *testing.T) {
	stderr, err := captureStderr(t, func() error {
		_, runErr := capture(t, func() error {
			return run([]string{"-dim", "rho", "-from", "0", "-to", "1",
				"-steps", "2", "-scheme", "MTSD", "-stats"})
		})
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	// ρ sweep under MTSD collapses to one solve; no disk tier configured.
	if !strings.Contains(stderr, "memory 2 hits / 1 misses") || strings.Contains(stderr, "disk") {
		t.Fatalf("-stats report:\n%s", stderr)
	}
}

func TestSweepRejectsUnwritableCacheDir(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-steps", "1", "-cache-dir", "/dev/null/nope"})
	}); err == nil {
		t.Fatal("unwritable cache dir accepted")
	}
}

func TestSweepPruneFlagRejections(t *testing.T) {
	cases := [][]string{
		{"-cache-prune-age", "1h"},                      // prune without -cache-dir
		{"-cache-prune-size", "1000"},                   // prune without -cache-dir
		{"-cache-prune-age", "-1h", "-cache-dir", "x"},  // negative age
		{"-cache-prune-size", "-1", "-cache-dir", "x"},  // negative size
		{"-cache-prune-age", "soon", "-cache-dir", "x"}, // unparsable duration
	}
	for i, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("case %d accepted: %v", i, args)
		}
	}
}

// TestSweepCachePruneAndUsage drives the prune flags end to end: populate
// the disk cache, verify -stats reports its usage, prune it empty, and
// check the next run re-solves from scratch.
func TestSweepCachePruneAndUsage(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-dim", "rho", "-from", "0", "-to", "1",
		"-steps", "2", "-scheme", "CMFSD", "-cache-dir", dir}
	if _, err := capture(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
	// -stats reports the populated store's footprint.
	stderr, err := captureStderr(t, func() error {
		_, runErr := capture(t, func() error { return run(append(args, "-stats")) })
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "disk cache: 3 entries") {
		t.Fatalf("usage line missing from -stats:\n%s", stderr)
	}
	// Prune everything (a 1-byte budget evicts every entry), then confirm
	// the store re-solves: 0 disk hits, 3 stores.
	stderr, err = captureStderr(t, func() error {
		_, runErr := capture(t, func() error {
			return run(append(args, "-cache-prune-size", "1", "-stats"))
		})
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "cache prune: removed 3 entries") {
		t.Fatalf("prune summary missing:\n%s", stderr)
	}
	if !strings.Contains(stderr, "disk 0 hits / 3 misses (3 stored") {
		t.Fatalf("post-prune stats:\n%s", stderr)
	}
	// Age-based prune with a generous window keeps everything.
	stderr, err = captureStderr(t, func() error {
		_, runErr := capture(t, func() error {
			return run(append(args, "-cache-prune-age", "24h", "-stats"))
		})
		return runErr
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "removed 0 entries") || !strings.Contains(stderr, "disk 3 hits / 0 misses") {
		t.Fatalf("age prune kept nothing or cache went cold:\n%s", stderr)
	}
}
