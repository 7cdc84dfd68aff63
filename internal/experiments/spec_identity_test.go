package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mfdl/internal/runner"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/swarm"
)

// specIdentity renders everything that names a sim-replica job on disk and
// on the wire: the canonical JSON, the fingerprint (checkpoint and fabric
// identity) and every grid cell's sample-store key. The golden pins uniform
// specs, which carry no per-cell replica counts: a changed byte would make
// stored samples and checkpoints silently miss.
func specIdentity(t *testing.T, name string, spec runner.JobSpec) string {
	t.Helper()
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("== " + name + "\ncanonical " + string(canon) + "\nfingerprint " + spec.Fingerprint() + "\n")
	p, err := sim.Params(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p.Cells {
		key, err := c.SampleKey()
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("key " + strconv.Itoa(i) + " " + key + "\n")
	}
	return sb.String()
}

func TestSpecIdentityGolden(t *testing.T) {
	set := DefaultSimSettings
	set.Seed, set.Replicas = 7, 2
	plan, err := PlanSimValidate(set, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	base := swarm.DefaultConfig
	base.Horizon, base.Warmup = 300, 60
	mfcd, cmfsd := base, base
	cmfsd.Rho = 0.5
	chunk, err := sim.NewJobSpec([]sim.JobCell{
		{Scheme: scheme.SimMFCD, Config: sim.Config{Chunk: &mfcd}},
		{Scheme: scheme.SimCMFSD, Config: sim.Config{Chunk: &cmfsd}},
	}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := specIdentity(t, "E9 plan", plan.Spec) + specIdentity(t, "chunk", chunk)
	want, err := os.ReadFile(filepath.Join("testdata", "golden_spec_identity.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("spec identity diverged from the golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
