// Package faults is the deterministic fault-injection layer: it turns a
// single chaos seed into a reproducible plan of peer aborts, virtual-seed
// departures, slow-peer throttling and message loss.
//
// Every per-entity draw is a pure function of (plan seed, fault kind,
// entity id), computed on a dedicated rng stream that is never shared
// with the simulators' main RNG. Two consequences follow:
//
//   - a faults-off run consumes exactly the same random numbers as before
//     this package existed, so all historical goldens stay byte-identical;
//   - a faults-on run is byte-identical at any worker count, because no
//     draw depends on scheduling order — peer #17's abort deadline is the
//     same number whether it is computed first or last, on one worker or
//     eight.
//
// The simulators (internal/eventsim, internal/swarm) consume the plan via
// small hooks at arrival/transfer time and count the aborts, seed quits
// and lost chunks it causes in their own results.
package faults

import (
	"fmt"
	"math"

	"mfdl/internal/rng"
)

// Window is a half-open time interval [Start, End). It only types
// Config.TrackerOutages, which Validate rejects.
type Window struct {
	Start, End float64
}

// Config selects which faults to inject and how hard. The zero value
// injects nothing and is always valid.
type Config struct {
	// Seed derives every fault stream. Two plans with the same seed and
	// the same rates draw identical per-entity outcomes.
	Seed uint64
	// AbortRate is the paper's θ: each downloader draws an exponential
	// patience with this rate and aborts (departs without finishing) if
	// its download outlives it. 0 disables aborts.
	AbortRate float64
	// SeedQuitRate makes CMFSD virtual seeds unreliable: a peer that
	// would serve finished files at ratio ρ draws an exponential
	// patience with this rate and stops serving early. 0 disables.
	SeedQuitRate float64
	// SlowPeerFraction of peers upload at SlowFactor times their
	// nominal bandwidth (an asymmetric-DSL / throttled population).
	SlowPeerFraction float64
	// SlowFactor is the throttle multiplier in (0, 1]; it is only
	// consulted when SlowPeerFraction > 0.
	SlowFactor float64
	// MessageLoss is the probability that one chunk transfer or wire
	// message is lost in flight and must be re-sent. In [0, 1).
	MessageLoss float64
	// ConnDropRate and TrackerOutages are modelled by neither simulator,
	// so Validate rejects any value but the zero one. They stay only
	// because every sample key encodes them; they go at the next
	// sample-key schema bump.
	ConnDropRate   float64
	TrackerOutages []Window
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.AbortRate > 0 || c.SeedQuitRate > 0 || c.SlowPeerFraction > 0 ||
		c.MessageLoss > 0
}

// Validate rejects rates and fractions outside their domains, and the
// faults no simulator models.
func (c Config) Validate() error {
	if c.ConnDropRate != 0 {
		return fmt.Errorf("faults: ConnDropRate %v is not modelled by either simulator", c.ConnDropRate)
	}
	if len(c.TrackerOutages) > 0 {
		return fmt.Errorf("faults: TrackerOutages is not modelled by either simulator")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"AbortRate", c.AbortRate},
		{"SeedQuitRate", c.SeedQuitRate},
	} {
		if f.v < 0 || math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s must be a finite rate >= 0, got %v", f.name, f.v)
		}
	}
	if c.SlowPeerFraction < 0 || c.SlowPeerFraction > 1 || math.IsNaN(c.SlowPeerFraction) {
		return fmt.Errorf("faults: SlowPeerFraction must be in [0,1], got %v", c.SlowPeerFraction)
	}
	if c.SlowPeerFraction > 0 && (c.SlowFactor <= 0 || c.SlowFactor > 1 || math.IsNaN(c.SlowFactor)) {
		return fmt.Errorf("faults: SlowFactor must be in (0,1] when SlowPeerFraction > 0, got %v", c.SlowFactor)
	}
	if c.MessageLoss < 0 || c.MessageLoss >= 1 || math.IsNaN(c.MessageLoss) {
		return fmt.Errorf("faults: MessageLoss must be in [0,1), got %v", c.MessageLoss)
	}
	return nil
}

// Mixed returns a copy of c whose seed also incorporates extra entropy
// (typically the per-replica simulation seed), so that replicas of one
// cell draw independent fault plans while the pair (chaos seed, sim
// seed) still determines every outcome.
func (c Config) Mixed(entropy uint64) Config {
	// SplitMix64-style finalizer keeps nearby sim seeds from producing
	// correlated plan seeds.
	z := entropy + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	c.Seed ^= z ^ (z >> 31)
	return c
}

// Per-kind stream salts: each fault kind draws from its own family of
// streams so adding a kind never perturbs another kind's outcomes.
const (
	saltAbort    uint64 = 0xa24baed4963ee407
	saltSeedQuit uint64 = 0x9fb21c651e98df25
	saltSlow     uint64 = 0x6c62272e07bb0142
	saltLoss     uint64 = 0x27d4eb2f165667c5
)

// Plan answers per-entity fault queries for one configuration. A nil
// *Plan is valid and injects nothing, so call sites can hold a plan
// unconditionally.
type Plan struct {
	cfg Config
}

// NewPlan validates cfg and builds its plan; a disabled configuration
// yields nil (inject nothing) without error.
func NewPlan(cfg Config) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return &Plan{cfg: cfg}, nil
}

// stream is the dedicated rng stream for one (kind, entity) pair.
func (p *Plan) stream(salt, id uint64) *rng.Source {
	return rng.NewStream(p.cfg.Seed+salt, id)
}

// AbortAfter returns entity id's downloader patience: how long after
// arrival it aborts if still downloading. +Inf when aborts are off.
func (p *Plan) AbortAfter(id uint64) float64 {
	if p == nil || p.cfg.AbortRate <= 0 {
		return math.Inf(1)
	}
	return p.stream(saltAbort, id).Exp(p.cfg.AbortRate)
}

// SeedQuitAfter returns how long entity id serves as a virtual seed
// before quitting early. +Inf when seed churn is off.
func (p *Plan) SeedQuitAfter(id uint64) float64 {
	if p == nil || p.cfg.SeedQuitRate <= 0 {
		return math.Inf(1)
	}
	return p.stream(saltSeedQuit, id).Exp(p.cfg.SeedQuitRate)
}

// UploadFactor returns entity id's bandwidth multiplier: SlowFactor for
// the throttled fraction, 1 otherwise.
func (p *Plan) UploadFactor(id uint64) float64 {
	if p == nil || p.cfg.SlowPeerFraction <= 0 {
		return 1
	}
	if p.stream(saltSlow, id).Bernoulli(p.cfg.SlowPeerFraction) {
		return p.cfg.SlowFactor
	}
	return 1
}

// LossStream returns a fresh per-entity stream for message-loss draws.
// A single-threaded simulator owns one (keyed by its own seed) and
// consumes it in event order; because it is distinct from the main RNG,
// enabling loss never shifts any other draw.
func (p *Plan) LossStream(id uint64) *rng.Source {
	seed := uint64(0)
	if p != nil {
		seed = p.cfg.Seed
	}
	return rng.NewStream(seed+saltLoss, id)
}

// LossProb returns the per-message loss probability (0 for a nil plan).
func (p *Plan) LossProb() float64 {
	if p == nil {
		return 0
	}
	return p.cfg.MessageLoss
}
