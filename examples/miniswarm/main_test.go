package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestMiniswarm runs the tracker-driven swarm end to end: every downloader
// completes, carol without the seed, and no client collects an error.
func TestMiniswarm(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, name := range []string{"alice", "bob", "carol"} {
		if !strings.Contains(out.String(), fmt.Sprintf("\n%-6s complete and verified after ", name)) {
			t.Fatalf("%s did not report complete:\n%s", name, out.String())
		}
	}
}
