// Package sim unifies the flow-level (internal/eventsim) and chunk-level
// (internal/swarm) simulators behind one constructor, New, and one job
// kind, sim-replica. Experiments list their rows as JobCells and run them
// through the job layer, so every simulated table can be distributed,
// checkpointed and replayed from the sample store:
//
//	spec, err := sim.NewJobSpec([]sim.JobCell{{Scheme: scheme.SimCMFSD,
//	    Config: sim.Config{Flow: &eventsim.Config{...}}}}, seed, replicas)
//	aggs, err := sim.RunJob(ctx, spec, runner.JobEnv{}, runner.Options{})
//
// Sequential stopping runs the replica engine's one loop either in memory
// (RunJobStopping) or round by round through any executor (RunRounds):
// each round is the spec lowered to per-cell replica counts, which the
// params carry beside the cells only when they differ, so a uniform spec
// keeps its bytes, fingerprint and sample keys.
//
// The concrete packages remain available for callers that need
// simulator-specific machinery (result structs, traces, population series).
package sim

import (
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

// Validate checks that exactly one simulator is selected and that its
// configuration is valid. Underlying validation errors keep their package
// prefixes ("swarm: ...", "eventsim: ...") so error-message goldens do not
// depend on which entry point a caller used.
func (c Config) Validate() error {
	switch {
	case c.Chunk != nil && c.Flow != nil:
		return errors.New("sim: Chunk and Flow are mutually exclusive")
	case c.Chunk != nil:
		return c.Chunk.Validate()
	case c.Flow != nil:
		return c.Flow.Validate()
	default:
		return errors.New("sim: one of Chunk or Flow must be set")
	}
}

// New returns a replica.Sim running the given scheme on whichever
// simulator cfg selects. The pointed-to configuration is copied, its
// Scheme field replaced by sc, and the result validated; the caller's
// configuration is never mutated. Replica seeding follows the engine's
// scheme: the wrapper reruns the copied configuration at each
// engine-derived seed.
func New(sc scheme.SimScheme, cfg Config) (replica.Sim, error) {
	switch {
	case cfg.Chunk != nil && cfg.Flow != nil:
		return nil, errors.New("sim: Chunk and Flow are mutually exclusive")
	case cfg.Chunk != nil:
		if sc == scheme.SimMTCD {
			// Not a generic validation failure: the scheme exists, just not
			// at chunk level. Point at the simulator that has it.
			return nil, fmt.Errorf("sim: %v has no chunk-level simulator (one swarm per torrent); use Flow", sc)
		}
		c := *cfg.Chunk
		c.Scheme = sc
		if err := c.Validate(); err != nil {
			return nil, err
		}
		return swarm.Sim{Config: c}, nil
	case cfg.Flow != nil:
		c := *cfg.Flow
		c.Scheme = sc
		if err := c.Validate(); err != nil {
			return nil, err
		}
		return eventsim.Sim{Config: c}, nil
	default:
		return nil, errors.New("sim: one of Chunk or Flow must be set")
	}
}
