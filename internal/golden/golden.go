// Package golden checks a test's output against a committed golden file.
// Its one flag, -update, makes every check write instead (make regolden).
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite every golden file the tests check with their output")

// Check compares got with the file at path byte for byte and reports the
// first lines that differ. Under -update it writes got to path, creating
// the directory if needed, and passes.
func Check(t testing.TB, path, got string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (make regolden writes it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	t.Errorf("%s: the output (%d lines) differs from the golden (%d lines)", path, len(g), len(w))
	for i, shown := 0, 0; shown < 5 && i < min(len(g), len(w)); i++ {
		if g[i] != w[i] {
			t.Errorf("line %d drifted:\n got  %s\n want %s", i+1, g[i], w[i])
			shown++
		}
	}
}
