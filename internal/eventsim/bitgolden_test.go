package eventsim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mfdl/internal/adapt"
	"mfdl/internal/faults"
	"mfdl/internal/scheme"
)

var updateBitGolden = flag.Bool("update-bitgolden", false, "rewrite the bit-exact simulator goldens")

// bitGoldenCases spans every scheme, fault injection, the Adapt
// controller, heterogeneous bandwidth classes, flash crowds and trace
// sampling. The digests pin the simulator bit-for-bit: any change to RNG
// draw order, float arithmetic order, peer iteration order or event
// tie-breaking shows up here before it reaches the experiment goldens.
func bitGoldenCases() map[string]Config {
	adaptCfg := adapt.Config{
		Lower: -0.3, Upper: 0.3, StepUp: 0.25, StepDown: 0.25,
		Period: 10, InitialRho: 0, Consecutive: 1,
	}
	chaos := faults.Config{
		Seed:         11,
		AbortRate:    0.01,
		SeedQuitRate: 0.05,

		SlowPeerFraction: 0.2,
		SlowFactor:       0.5,
	}
	mk := func(sc scheme.SimScheme, mutate func(*Config)) Config {
		c := baseConfig(sc)
		c.Horizon = 1200
		c.Warmup = 200
		c.P = 0.9
		if mutate != nil {
			mutate(&c)
		}
		return c
	}
	return map[string]Config{
		"mtcd": mk(scheme.SimMTCD, nil),
		"mtsd": mk(scheme.SimMTSD, nil),
		"mfcd": mk(scheme.SimMFCD, nil),
		"cmfsd-rho05": mk(scheme.SimCMFSD, func(c *Config) {
			c.Rho = 0.5
		}),
		"cmfsd-adapt-cheaters": mk(scheme.SimCMFSD, func(c *Config) {
			c.Adapt = &adaptCfg
			c.CheaterFraction = 0.3
		}),
		"mtsd-faults": mk(scheme.SimMTSD, func(c *Config) {
			c.Faults = chaos
		}),
		"cmfsd-faults": mk(scheme.SimCMFSD, func(c *Config) {
			c.Rho = 0.4
			c.Faults = chaos
		}),
		"mtcd-bandwidth": mk(scheme.SimMTCD, func(c *Config) {
			c.Bandwidth = []BandwidthClass{
				{Name: "slow", Mu: 0.1, Weight: 1, Fraction: 0.5},
				{Name: "fast", Mu: 0.4, Weight: 2, Fraction: 0.5},
			}
		}),
		"cmfsd-flash-trace": mk(scheme.SimCMFSD, func(c *Config) {
			c.FlashCrowd = 50
			c.SampleEvery = 5
			c.Horizon = 600
			c.Warmup = 100
		}),
	}
}

func digestResult(r *Result) string {
	b := func(v float64) string {
		return fmt.Sprintf("%016x", math.Float64bits(v))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "arrived=%d completed=%d aborted=%d seedquits=%d",
		r.ArrivedUsers, r.CompletedUsers, r.AbortedUsers, r.SeedQuits)
	fmt.Fprintf(&sb, " online=%s dl=%s meandl=%s meansd=%s rho=%s rhon=%d",
		b(r.AvgOnlinePerFile), b(r.AvgDownloadPerFile),
		b(r.MeanDownloaders), b(r.MeanSeeds), b(r.FinalRho.Mean()), r.FinalRho.N())
	for _, cs := range r.Classes {
		fmt.Fprintf(&sb, " c%d=%d/%s/%s", cs.Class, cs.Completed,
			b(cs.OnlineTime.Mean()), b(cs.DownloadTime.Mean()))
	}
	for _, bw := range r.Bandwidth {
		fmt.Fprintf(&sb, " bw:%s=%d/%s/%s", bw.Name, bw.Completed,
			b(bw.OnlineTime.Mean()), b(bw.DownloadTime.Mean()))
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

// TestBitGolden pins the flow-level simulator bit-for-bit across the
// configuration matrix. Regenerate (a reviewed act) with
// go test ./internal/eventsim -run BitGolden -update-bitgolden.
func TestBitGolden(t *testing.T) {
	cases := bitGoldenCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	var sb strings.Builder
	for _, name := range names {
		res, err := Run(cases[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "%s: %s\n", name, digestResult(res))
	}
	got := sb.String()
	path := filepath.Join("testdata", "bitgolden.txt")
	if *updateBitGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing bit golden (run with -update-bitgolden): %v", err)
	}
	if got != string(want) {
		t.Errorf("bit-exact simulator golden drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
