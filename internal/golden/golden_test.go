package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a testing.TB that keeps what Check reports.
type recorder struct {
	testing.TB
	errs []string
}

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func TestCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "testdata", "out.txt")
	*update = true
	Check(t, path, "a\nb\n")
	*update = false
	if data, err := os.ReadFile(path); err != nil || string(data) != "a\nb\n" {
		t.Fatalf("-update wrote %q, %v", data, err)
	}
	r := &recorder{TB: t}
	if Check(r, path, "a\nb\n"); len(r.errs) != 0 {
		t.Fatalf("equal output reported %q", r.errs)
	}
	Check(r, path, "a\nc\nd\n")
	want := []string{"(4 lines) differs from the golden (3 lines)", "line 2 drifted:\n got  c\n want b",
		"line 3 drifted:\n got  d\n want "}
	if len(r.errs) != len(want) {
		t.Fatalf("reported %q, want %d errors", r.errs, len(want))
	}
	for i, w := range want {
		if !strings.Contains(r.errs[i], w) {
			t.Errorf("error %d is %q, want %q", i, r.errs[i], w)
		}
	}
}
