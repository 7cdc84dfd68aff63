package sim

import (
	"encoding/hex"
	"path/filepath"
	"testing"

	"mfdl/internal/eventsim"
	"mfdl/internal/faults"
	"mfdl/internal/fluid"
	"mfdl/internal/golden"
	"mfdl/internal/replica"
	"mfdl/internal/scheme"
	"mfdl/internal/swarm"
)

// goldenSamples renders the encoded sample of one flow-level run with two
// bandwidth classes and aborts on, and of one chunk-level CMFSD run: every
// key either backend writes, in the bytes the sample store and the fabric
// carry.
func goldenSamples(t *testing.T) string {
	t.Helper()
	flow := eventsim.Config{
		Params:  fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5},
		K:       4,
		Lambda0: 1,
		P:       0.9,
		Scheme:  scheme.SimCMFSD,
		Rho:     0.3,
		Horizon: 300,
		Warmup:  50,
		Seed:    7,
		Bandwidth: []eventsim.BandwidthClass{
			{Name: "slow", Mu: 0.1, Weight: 1, Fraction: 0.5},
			{Name: "fast", Mu: 0.4, Weight: 3, Fraction: 0.5},
		},
		Faults: faults.Config{Seed: 5, AbortRate: 0.02, SeedQuitRate: 0.05},
	}
	fr, err := eventsim.Run(flow)
	if err != nil {
		t.Fatal(err)
	}
	if fr.AbortedUsers == 0 || len(fr.Bandwidth) != 2 {
		t.Fatalf("flow run has %d aborts and %d bandwidth classes; the golden needs both", fr.AbortedUsers, len(fr.Bandwidth))
	}
	chunk := swarm.DefaultConfig
	chunk.Scheme, chunk.Rho = scheme.SimCMFSD, 0.5
	chunk.Horizon, chunk.Warmup, chunk.Seed = 200, 40, 3
	cr, err := swarm.Run(chunk)
	if err != nil {
		t.Fatal(err)
	}
	var out string
	for _, s := range []struct {
		name   string
		sample replica.Sample
	}{{"eventsim", fr.Sample()}, {"swarm", cr.Sample()}} {
		data, err := replica.EncodeSample(s.sample)
		if err != nil {
			t.Fatal(err)
		}
		out += s.name + " " + hex.EncodeToString(data) + "\n"
	}
	return out
}

// TestSampleBytesGolden pins both backends' sample bytes: a changed key or
// value would make every stored sample and checkpointed payload miss.
func TestSampleBytesGolden(t *testing.T) {
	golden.Check(t, filepath.Join("testdata", "golden_samples.txt"), goldenSamples(t))
}
