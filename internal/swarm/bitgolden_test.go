package swarm

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mfdl/internal/adapt"
	"mfdl/internal/faults"
	"mfdl/internal/golden"
	"mfdl/internal/scheme"
)

// bitGoldenCases is a matrix of configurations spanning every scheme,
// fault injection, the Adapt controller, cheaters and trace sampling. The
// digests pin the simulator bit-for-bit: any change to RNG draw order,
// float arithmetic order or peer iteration order shows up here before it
// reaches the experiment goldens.
func bitGoldenCases() map[string]Config {
	adaptCfg := adapt.Config{
		Lower: -0.3, Upper: 0.3, StepUp: 0.25, StepDown: 0.25,
		Period: 10, InitialRho: 0, Consecutive: 1,
	}
	chaos := faults.Config{
		Seed:             7,
		AbortRate:        0.002,
		SeedQuitRate:     0.02,
		SlowPeerFraction: 0.1,
		SlowFactor:       0.5,
		MessageLoss:      0.01,
	}
	mk := func(mutate func(*Config)) Config {
		c := DefaultConfig
		c.Horizon = 500
		c.Warmup = 100
		mutate(&c)
		return c
	}
	return map[string]Config{
		"mfcd": mk(func(c *Config) { c.Scheme = scheme.SimMFCD }),
		"cmfsd-rho03": mk(func(c *Config) {
			c.Scheme = scheme.SimCMFSD
			c.Rho = 0.3
		}),
		"cmfsd-adapt-cheaters": mk(func(c *Config) {
			c.Scheme = scheme.SimCMFSD
			c.Adapt = &adaptCfg
			c.CheaterFraction = 0.3
			c.Horizon = 600
		}),
		"mtsd": mk(func(c *Config) {
			c.Scheme = scheme.SimMTSD
			c.Horizon = 600
		}),
		"mfcd-faults": mk(func(c *Config) {
			c.Scheme = scheme.SimMFCD
			c.Faults = chaos
		}),
		"cmfsd-faults": mk(func(c *Config) {
			c.Scheme = scheme.SimCMFSD
			c.Rho = 0.4
			c.Faults = chaos
		}),
		"k1-mfcd": mk(func(c *Config) {
			c.K = 1
			c.Scheme = scheme.SimMFCD
			c.Horizon = 400
		}),
		"cmfsd-trace": mk(func(c *Config) {
			c.Scheme = scheme.SimCMFSD
			c.SampleEvery = 7
			c.Horizon = 400
		}),
	}
}

func digestResult(r *Result) string {
	b := func(v float64) string {
		return fmt.Sprintf("%016x", math.Float64bits(v))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "arrived=%d completed=%d aborted=%d seedquits=%d chunks=%d lost=%d",
		r.ArrivedUsers, r.CompletedUsers, r.AbortedUsers, r.SeedQuits,
		r.ChunksTransferred, r.ChunksLost)
	fmt.Fprintf(&sb, " online=%s dl=%s meandl=%s meansd=%s rho=%s rhon=%d",
		b(r.AvgOnlinePerFile), b(r.AvgDownloadPerFile),
		b(r.MeanDownloaders), b(r.MeanSeeds), b(r.FinalRho.Mean()), r.FinalRho.N())
	for _, cs := range r.Classes {
		fmt.Fprintf(&sb, " c%d=%d/%s/%s", cs.Class, cs.Completed,
			b(cs.OnlineTime.Mean()), b(cs.DownloadTime.Mean()))
	}
	if r.Trace != nil {
		for _, name := range []string{"downloaders", "seeds"} {
			s := r.Trace.Series(name)
			sum := 0.0
			for _, v := range s.V {
				sum += v
			}
			fmt.Fprintf(&sb, " %s=%d/%s", name, s.Len(), b(sum))
		}
	}
	return sb.String()
}

// TestBitGolden pins the chunk-level simulator bit-for-bit across the
// configuration matrix. Regenerating it is a reviewed act (make regolden,
// DESIGN.md §10b).
func TestBitGolden(t *testing.T) {
	cases := bitGoldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		res, err := Run(cases[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "%s: %s\n", name, digestResult(res))
	}
	golden.Check(t, filepath.Join("testdata", "bitgolden.txt"), sb.String())
}
