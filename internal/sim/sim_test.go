package sim

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"mfdl/internal/eventsim"
	"mfdl/internal/fluid"
	"mfdl/internal/replica"
	"mfdl/internal/scheme"
	"mfdl/internal/swarm"
)

func flowConfig() *eventsim.Config {
	return &eventsim.Config{
		Params:  fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5},
		K:       4,
		Lambda0: 1,
		P:       1,
		Horizon: 300,
		Warmup:  50,
		Seed:    1,
	}
}

func chunkConfig() *swarm.Config {
	cfg := swarm.DefaultConfig
	cfg.Horizon = 120
	cfg.Warmup = 20
	return &cfg
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" means valid
	}{
		{"neither", Config{}, "sim: one of Chunk or Flow"},
		{"both", Config{Chunk: chunkConfig(), Flow: flowConfig()}, "sim: Chunk and Flow"},
		{"flow ok", Config{Flow: flowConfig()}, ""},
		{"chunk ok", Config{Chunk: chunkConfig()}, ""},
	}
	// Invalid underlying configs keep their package prefixes.
	badFlow := flowConfig()
	badFlow.K = 0
	cases = append(cases, struct {
		name string
		cfg  Config
		want string
	}{"flow invalid", Config{Flow: badFlow}, "eventsim: "})
	badChunk := chunkConfig()
	badChunk.K = 0
	cases = append(cases, struct {
		name string
		cfg  Config
		want string
	}{"chunk invalid", Config{Chunk: badChunk}, "swarm: "})
	for _, c := range cases {
		err := c.cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestConfigRejectsNonFinite sets one float field of each simulator's
// configuration to NaN or ±Inf: Validate must refuse it, under the
// simulator's own prefix, rather than let Run return a result with no
// arrivals or NaN statistics. A nil setter means the simulator has no
// such field.
func TestConfigRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		flow  func(*eventsim.Config, float64)
		chunk func(*swarm.Config, float64)
	}{
		{"Lambda0", func(c *eventsim.Config, v float64) { c.Lambda0 = v }, func(c *swarm.Config, v float64) { c.Lambda0 = v }},
		{"P", func(c *eventsim.Config, v float64) { c.P = v }, func(c *swarm.Config, v float64) { c.P = v }},
		{"Rho", func(c *eventsim.Config, v float64) { c.Rho = v }, func(c *swarm.Config, v float64) { c.Rho = v }},
		{"CheaterFraction", func(c *eventsim.Config, v float64) { c.CheaterFraction = v }, func(c *swarm.Config, v float64) { c.CheaterFraction = v }},
		{"TFTEfficiency", nil, func(c *swarm.Config, v float64) { c.TFTEfficiency = v }},
		{"Gamma", func(c *eventsim.Config, v float64) { c.Gamma = v }, func(c *swarm.Config, v float64) { c.Gamma = v }},
		{"Mu", func(c *eventsim.Config, v float64) { c.Mu = v }, nil},
		{"Eta", func(c *eventsim.Config, v float64) { c.Eta = v }, nil},
	}
	for _, c := range cases {
		for _, v := range []float64{nan, inf, -inf} {
			if c.flow != nil {
				cfg := flowConfig()
				c.flow(cfg, v)
				if err := cfg.Validate(); err == nil || !strings.HasPrefix(err.Error(), "eventsim: ") && !strings.HasPrefix(err.Error(), "fluid: ") {
					t.Errorf("eventsim %s = %v: Validate returned %v", c.field, v, err)
				}
			}
			if c.chunk != nil {
				cfg := chunkConfig()
				c.chunk(cfg, v)
				if err := cfg.Validate(); err == nil || !strings.HasPrefix(err.Error(), "swarm: ") {
					t.Errorf("swarm %s = %v: Validate returned %v", c.field, v, err)
				}
			}
		}
	}
}

// TestFinalRhoRule pins whose final ρ each simulator counts, with every
// CMFSD peer a cheater pinned at ρ = 1: the flow-level simulator counts
// cheaters, so its FinalRho reads exactly 1; the chunk-level one counts
// obedient peers only, so it has no entries.
func TestFinalRhoRule(t *testing.T) {
	flow, chunk := flowConfig(), chunkConfig()
	flow.CheaterFraction, chunk.CheaterFraction = 1, 1
	for _, c := range []struct {
		name     string
		cfg      Config
		counted  bool
		wantMean float64
	}{
		{"eventsim counts cheaters", Config{Flow: flow}, true, 1},
		{"swarm leaves cheaters out", Config{Chunk: chunk}, false, 0},
	} {
		s, err := New(scheme.SimCMFSD, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sample, err := s.Simulate(context.Background(), replica.Rep{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rho := sample.Summaries[replica.FinalRho]
		if (rho.N() > 0) != c.counted || (c.counted && rho.Mean() != c.wantMean) {
			t.Errorf("%s: final ρ over %d peers, mean %v", c.name, rho.N(), rho.Mean())
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(scheme.SimCMFSD, Config{}); err == nil {
		t.Error("New accepted an empty Config")
	}
	if _, err := New(scheme.SimCMFSD, Config{Chunk: chunkConfig(), Flow: flowConfig()}); err == nil {
		t.Error("New accepted both simulators")
	}
	if _, err := New(scheme.SimMTCD, Config{Chunk: chunkConfig()}); err == nil ||
		!strings.Contains(err.Error(), "no chunk-level simulator") {
		t.Errorf("New(MTCD, Chunk) error = %v, want chunk-level rejection", err)
	}
	bad := flowConfig()
	bad.Lambda0 = 0
	if _, err := New(scheme.SimMTCD, Config{Flow: bad}); err == nil ||
		!strings.HasPrefix(err.Error(), "eventsim: ") {
		t.Errorf("invalid flow config error = %v, want eventsim prefix", err)
	}
}

// TestNewMatchesDirectConstruction checks that the unified constructor is a
// pure repackaging: the sample it produces is identical to running the
// simulator by hand at the replica's seed, and the caller's config is left
// untouched.
func TestNewMatchesDirectConstruction(t *testing.T) {
	rep := replica.Rep{Cell: 0, Replica: 0, Seed: 7}

	flow := flowConfig()
	flow.Scheme = scheme.SimMTSD // overwritten by New
	s, err := New(scheme.SimCMFSD, Config{Flow: flow})
	if err != nil {
		t.Fatal(err)
	}
	if flow.Scheme != scheme.SimMTSD {
		t.Fatalf("New mutated the caller's config: Scheme = %v", flow.Scheme)
	}
	direct := *flowConfig()
	direct.Scheme, direct.Seed = scheme.SimCMFSD, rep.Seed
	got, err := s.Simulate(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eventsim.Run(direct)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Sample(); !reflect.DeepEqual(got, want) {
		t.Errorf("flow sample %v, want %v", got, want)
	}

	chunk := chunkConfig()
	cs, err := New(scheme.SimMTSD, Config{Chunk: chunk})
	if err != nil {
		t.Fatal(err)
	}
	directChunk := *chunkConfig()
	directChunk.Scheme, directChunk.Seed = scheme.SimMTSD, rep.Seed
	gotC, err := cs.Simulate(context.Background(), rep)
	if err != nil {
		t.Fatal(err)
	}
	resC, err := swarm.Run(directChunk)
	if err != nil {
		t.Fatal(err)
	}
	if wantC := resC.Sample(); !reflect.DeepEqual(gotC, wantC) {
		t.Errorf("chunk sample %v, want %v", gotC, wantC)
	}
}
