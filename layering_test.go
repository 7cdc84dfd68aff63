package mfdl_test

import (
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

// repoImports returns the repository packages that the package in dir
// imports from its non-test files, as module-relative paths.
func repoImports(t *testing.T, dir string) []string {
	t.Helper()
	p, err := build.ImportDir(filepath.FromSlash(dir), 0)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var out []string
	for _, imp := range p.Imports {
		if rel, ok := strings.CutPrefix(imp, "mfdl/"); ok {
			out = append(out, rel)
		}
	}
	return out
}

// TestBackendsAreLeaves pins the layering the simulator contract exists
// for: a simulator backend links neither the job layer nor the replica
// engine, and the contract it implements (internal/replica) sits on rng
// and stats alone.
func TestBackendsAreLeaves(t *testing.T) {
	forbidden := []string{"internal/runner", "internal/runner/diskcache", "internal/sim"}
	for _, backend := range []string{"internal/eventsim", "internal/swarm"} {
		importer := map[string]string{backend: ""}
		for queue := []string{backend}; len(queue) > 0; queue = queue[1:] {
			for _, dep := range repoImports(t, queue[0]) {
				if _, seen := importer[dep]; !seen {
					importer[dep] = queue[0]
					queue = append(queue, dep)
				}
			}
		}
		for _, f := range forbidden {
			if by, ok := importer[f]; ok {
				t.Errorf("%s depends on %s (imported by %s)", backend, f, by)
			}
		}
	}
	for _, dep := range repoImports(t, "internal/replica") {
		if dep != "internal/rng" && dep != "internal/stats" {
			t.Errorf("internal/replica imports %s; the contract may import only internal/rng and internal/stats", dep)
		}
	}
}
