// Package sim composes the simulator backends with the job layer. New
// turns a scheme plus a flow-level (internal/eventsim) or chunk-level
// (internal/swarm) configuration into a replica.Sim; the replica engine
// fans replicas out over the runner pool, replays them from the sample
// store and grows them under sequential stopping; and the sim-replica job
// kind makes every simulated table distributable, checkpointable and
// replayable. The backends implement only the internal/replica contract.
//
//	spec, err := sim.NewJobSpec([]sim.JobCell{{Scheme: scheme.SimCMFSD,
//	    Config: sim.Config{Flow: &eventsim.Config{...}}}}, seed, replicas)
//	aggs, err := sim.RunJob(ctx, spec, runner.JobEnv{}, runner.Options{})
//
// The engine has one stopping loop, which sets each round's per-cell
// replica counts and leaves the round to its caller: RunSequential runs
// it in memory (RunJobStopping over a spec's cells), RunRounds serves
// each round as the spec lowered to per-cell replica counts through any
// executor. The params carry those counts beside the cells only when they
// differ, so a uniform spec keeps its bytes, fingerprint and sample keys.
//
// The concrete packages remain available for callers that need
// simulator-specific machinery (result structs, traces, population series).
package sim

import (
	"context"
	"errors"
	"fmt"

	"mfdl/internal/eventsim"
	"mfdl/internal/replica"
	"mfdl/internal/scheme"
	"mfdl/internal/swarm"
)

// Config selects and parameterizes one simulator. Exactly one of the two
// fields must be non-nil; the selected configuration's Scheme field is
// overwritten by the scheme passed to New.
type Config struct {
	// Chunk selects the chunk-level swarm simulator (internal/swarm).
	Chunk *swarm.Config
	// Flow selects the flow-level event simulator (internal/eventsim).
	Flow *eventsim.Config
}

var (
	errBoth    = errors.New("Chunk and Flow are mutually exclusive")
	errNeither = errors.New("one of Chunk or Flow must be set")
)

// pick checks that exactly one simulator is selected, copies its
// configuration and returns the copy with pointers to the copy's Scheme
// and Seed, which callers read or normalise. The caller's configuration is
// never mutated.
func (c Config) pick() (Config, *scheme.SimScheme, *uint64, error) {
	switch {
	case c.Chunk != nil && c.Flow != nil:
		return Config{}, nil, nil, errBoth
	case c.Chunk != nil:
		cfg := *c.Chunk
		return Config{Chunk: &cfg}, &cfg.Scheme, &cfg.Seed, nil
	case c.Flow != nil:
		cfg := *c.Flow
		return Config{Flow: &cfg}, &cfg.Scheme, &cfg.Seed, nil
	}
	return Config{}, nil, nil, errNeither
}

// Validate checks that exactly one simulator is selected and that its
// configuration is valid. Underlying validation errors keep their package
// prefixes ("swarm: ...", "eventsim: ...") so error-message goldens do not
// depend on which entry point a caller used.
func (c Config) Validate() error {
	if _, _, _, err := c.pick(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Chunk != nil {
		return c.Chunk.Validate()
	}
	return c.Flow.Validate()
}

// New returns a replica.Sim running the given scheme on whichever
// simulator cfg selects. The pointed-to configuration is copied, its
// Scheme field replaced by sc, and the result validated; the caller's
// configuration is never mutated. Every replica reruns the copy at its
// engine-derived seed and reports the run's Result.Sample.
func New(sc scheme.SimScheme, cfg Config) (replica.Sim, error) {
	c, embScheme, _, err := cfg.pick()
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if c.Chunk != nil && sc == scheme.SimMTCD {
		// Not a generic validation failure: the scheme exists, just not
		// at chunk level. Point at the simulator that has it.
		return nil, fmt.Errorf("sim: %v has no chunk-level simulator (one swarm per torrent); use Flow", sc)
	}
	*embScheme = sc
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Chunk != nil {
		return rerun(*c.Chunk, func(c swarm.Config, s uint64) swarm.Config { c.Seed = s; return c }, swarm.Run), nil
	}
	return rerun(*c.Flow, func(c eventsim.Config, s uint64) eventsim.Config { c.Seed = s; return c }, eventsim.Run), nil
}

// rerun adapts a simulator's Run to replica.Sim: every replica runs cfg
// with its seed field set, by reseed, to the replica's seed.
func rerun[C any, R interface{ Sample() replica.Sample }](cfg C, reseed func(C, uint64) C, run func(C) (R, error)) replica.Sim {
	return replica.SimFunc(func(_ context.Context, r replica.Rep) (replica.Sample, error) {
		res, err := run(reseed(cfg, r.Seed))
		if err != nil {
			return replica.Sample{}, err
		}
		return res.Sample(), nil
	})
}
