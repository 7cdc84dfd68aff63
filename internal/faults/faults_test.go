package faults

import (
	"math"
	"strings"
	"testing"
)

func mustPlan(t *testing.T, cfg Config) *Plan {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatalf("NewPlan(%+v): %v", cfg, err)
	}
	return p
}

// Per-entity draws are pure functions of (seed, kind, id): the same plan
// built twice answers identically, in any query order.
func TestPlanDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, AbortRate: 0.1, SeedQuitRate: 0.05,
		SlowPeerFraction: 0.3, SlowFactor: 0.25, MessageLoss: 0.1,
	}
	a, b := mustPlan(t, cfg), mustPlan(t, cfg)
	// Query b in reverse order to prove order independence.
	const n = 200
	for id := uint64(0); id < n; id++ {
		rev := uint64(n-1) - id
		if a.AbortAfter(rev) != b.AbortAfter(rev) {
			t.Fatalf("AbortAfter(%d) differs between identical plans", rev)
		}
	}
	for id := uint64(0); id < n; id++ {
		if a.AbortAfter(id) != b.AbortAfter(id) ||
			a.SeedQuitAfter(id) != b.SeedQuitAfter(id) ||
			a.UploadFactor(id) != b.UploadFactor(id) {
			t.Fatalf("plan draws differ for id %d", id)
		}
		if a.LossStream(id).Uint64() != b.LossStream(id).Uint64() {
			t.Fatalf("LossStream(%d) differs", id)
		}
	}
}

// Different seeds and different entities draw different outcomes, and
// each kind has its own stream family.
func TestPlanIndependence(t *testing.T) {
	cfg := Config{Seed: 1, AbortRate: 0.1, SeedQuitRate: 0.1}
	a := mustPlan(t, cfg)
	cfg.Seed = 2
	b := mustPlan(t, cfg)
	same := 0
	const n = 100
	for id := uint64(0); id < n; id++ {
		if a.AbortAfter(id) == b.AbortAfter(id) {
			same++
		}
		if a.AbortAfter(id) == a.SeedQuitAfter(id) {
			t.Fatalf("abort and seed-quit streams collide for id %d", id)
		}
		if id > 0 && a.AbortAfter(id) == a.AbortAfter(id-1) {
			t.Fatalf("adjacent entities %d,%d drew identical deadlines", id-1, id)
		}
	}
	if same != 0 {
		t.Fatalf("%d/%d draws identical across different seeds", same, n)
	}
}

// Exponential deadlines must have roughly the configured mean.
func TestAbortAfterMean(t *testing.T) {
	const rate = 0.2
	p := mustPlan(t, Config{Seed: 7, AbortRate: rate})
	var sum float64
	const n = 20000
	for id := uint64(0); id < n; id++ {
		sum += p.AbortAfter(id)
	}
	mean := sum / n
	if want := 1 / rate; math.Abs(mean-want) > 0.1*want {
		t.Fatalf("mean abort deadline %.3f, want ~%.3f", mean, want)
	}
}

func TestDisabledAndNil(t *testing.T) {
	p, err := NewPlan(Config{Seed: 3})
	if err != nil {
		t.Fatalf("disabled config: %v", err)
	}
	if p != nil {
		t.Fatalf("disabled config should yield a nil plan")
	}
	// The nil plan injects nothing and never panics.
	if !math.IsInf(p.AbortAfter(1), 1) || !math.IsInf(p.SeedQuitAfter(1), 1) {
		t.Fatalf("nil plan must return +Inf deadlines")
	}
	if p.UploadFactor(1) != 1 || p.LossProb() != 0 {
		t.Fatalf("nil plan must be a no-op")
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []Config{
		{AbortRate: -1},
		{AbortRate: math.NaN()},
		{SeedQuitRate: math.Inf(1)},
		{SlowPeerFraction: 1.5},
		{SlowPeerFraction: 0.5},                  // SlowFactor unset
		{SlowPeerFraction: 0.5, SlowFactor: 1.5}, // factor > 1
		{MessageLoss: 1},
		{MessageLoss: -0.1},
		{TrackerOutages: []Window{{Start: 5, End: 5}}},
		{TrackerOutages: []Window{{Start: -1, End: 2}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d (%+v) should fail validation", i, cfg)
		}
	}
	good := Config{AbortRate: 0.1, SlowPeerFraction: 0.2, SlowFactor: 0.5, MessageLoss: 0.3}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// Connection drops and tracker outages are modelled by neither simulator,
// so asking for them must fail rather than run a fault-free simulation
// under a faulty sample key.
func TestUnmodelledFaultsRejected(t *testing.T) {
	for _, cfg := range []Config{
		{ConnDropRate: 0.01},
		{AbortRate: 0.1, ConnDropRate: 0.01},
		{TrackerOutages: []Window{{Start: 0, End: 10}}},
	} {
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "not modelled") {
			t.Errorf("Validate(%+v) = %v, want a not-modelled error", cfg, err)
		}
		if _, err := NewPlan(cfg); err == nil {
			t.Errorf("NewPlan(%+v) accepted an unmodelled fault", cfg)
		}
	}
}

// Mixed derives decorrelated plan seeds from per-replica entropy while
// staying a pure function of its inputs.
func TestMixed(t *testing.T) {
	base := Config{Seed: 9, AbortRate: 0.1}
	if base.Mixed(1).Seed == base.Mixed(2).Seed {
		t.Fatalf("Mixed(1) and Mixed(2) collide")
	}
	if base.Mixed(1).Seed != base.Mixed(1).Seed {
		t.Fatalf("Mixed is not deterministic")
	}
	if base.Mixed(1).AbortRate != base.AbortRate {
		t.Fatalf("Mixed must only change the seed")
	}
}
