package eventsim

import (
	"math"
	"testing"

	"mfdl/internal/adapt"
	"mfdl/internal/fluid"
	"mfdl/internal/numeric/ode"
	"mfdl/internal/replica"
	"mfdl/internal/scheme"
	"mfdl/internal/stats"
)

// fastParams is the paper's parameter regime rescaled in time (μ and γ both
// ×10) so simulated populations stay small and tests run quickly. The fluid
// predictions rescale exactly: T = (γ−μ)/(γμη) = 6, online per file = 8.
var fastParams = fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5}

func baseConfig(sc scheme.SimScheme) Config {
	return Config{
		Params:  fastParams,
		K:       10,
		Lambda0: 1,
		P:       1,
		Scheme:  sc,
		Horizon: 4000,
		Warmup:  800,
		Seed:    1,
	}
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedUsers < 100 {
		t.Fatalf("only %d completed users — horizon too short", res.CompletedUsers)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	good := baseConfig(scheme.SimMTSD)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.Lambda0 = 0 },
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.P = 1.5 },
		func(c *Config) { c.Scheme = scheme.SimScheme(9) },
		func(c *Config) { c.Rho = -1 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Horizon = math.NaN() },
		func(c *Config) { c.Horizon = math.Inf(1) },
		func(c *Config) { c.Warmup = c.Horizon },
		func(c *Config) { c.Warmup = math.NaN() },
		func(c *Config) { c.CheaterFraction = 2 },
		func(c *Config) { c.Adapt = &adapt.Config{} },
		func(c *Config) {
			c.Bandwidth = []BandwidthClass{
				{Name: "a", Mu: 0.1, Weight: 1, Fraction: 0.5},
				{Name: "a", Mu: 0.4, Weight: 1, Fraction: 0.5},
			}
		},
	}
	for i, mutate := range cases {
		bad := baseConfig(scheme.SimMTSD)
		mutate(&bad)
		if bad.Validate() == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSchemeString(t *testing.T) {
	names := map[scheme.SimScheme]string{scheme.SimMTCD: "MTCD", scheme.SimMTSD: "MTSD", scheme.SimMFCD: "MFCD", scheme.SimCMFSD: "CMFSD"}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%v", s)
		}
	}
	if scheme.SimScheme(42).String() == "" {
		t.Fatal("unknown scheme has empty name")
	}
}

func TestMTSDMatchesFluidPrediction(t *testing.T) {
	res := run(t, baseConfig(scheme.SimMTSD))
	// Fluid: online per file = T + 1/γ = 8; download per file = 6.
	if e := stats.RelErr(res.AvgOnlinePerFile, 8, 1); e > 0.15 {
		t.Fatalf("MTSD online per file %v, fluid predicts 8 (err %v)", res.AvgOnlinePerFile, e)
	}
	if e := stats.RelErr(res.AvgDownloadPerFile, 6, 1); e > 0.15 {
		t.Fatalf("MTSD download per file %v, fluid predicts 6", res.AvgDownloadPerFile)
	}
}

func TestMTCDMatchesFluidPrediction(t *testing.T) {
	res := run(t, baseConfig(scheme.SimMTCD))
	// Fluid at p=1, K=10 (rescaled): A = (γ−μ/10)/(γμη) = 9.6;
	// online per file = A + 1/(10γ) = 9.8.
	if e := stats.RelErr(res.AvgOnlinePerFile, 9.8, 1); e > 0.15 {
		t.Fatalf("MTCD online per file %v, fluid predicts 9.8", res.AvgOnlinePerFile)
	}
	if e := stats.RelErr(res.AvgDownloadPerFile, 9.6, 1); e > 0.15 {
		t.Fatalf("MTCD download per file %v, fluid predicts 9.6", res.AvgDownloadPerFile)
	}
}

func TestMFCDBehavesLikeMTCD(t *testing.T) {
	a := run(t, baseConfig(scheme.SimMTCD))
	b := run(t, baseConfig(scheme.SimMFCD))
	if e := stats.RelErr(b.AvgOnlinePerFile, a.AvgOnlinePerFile, 1); e > 0.1 {
		t.Fatalf("MFCD %v vs MTCD %v", b.AvgOnlinePerFile, a.AvgOnlinePerFile)
	}
}

func TestMTCDBeatsNobodyAtFullCorrelation(t *testing.T) {
	// The paper's headline: at p=1 MTCD is worse than MTSD.
	seq := run(t, baseConfig(scheme.SimMTSD))
	con := run(t, baseConfig(scheme.SimMTCD))
	if con.AvgOnlinePerFile <= seq.AvgOnlinePerFile {
		t.Fatalf("MTCD %v should exceed MTSD %v at p=1",
			con.AvgOnlinePerFile, seq.AvgOnlinePerFile)
	}
}

func TestCMFSDRho0BeatsMFCD(t *testing.T) {
	cfg := baseConfig(scheme.SimCMFSD)
	cfg.P = 0.9
	cfg.Rho = 0
	collab := run(t, cfg)
	base := baseConfig(scheme.SimMFCD)
	base.P = 0.9
	mfcd := run(t, base)
	if collab.AvgOnlinePerFile >= 0.85*mfcd.AvgOnlinePerFile {
		t.Fatalf("CMFSD ρ=0 (%v) not clearly better than MFCD (%v)",
			collab.AvgOnlinePerFile, mfcd.AvgOnlinePerFile)
	}
}

func TestCMFSDRho1ApproachesMFCD(t *testing.T) {
	cfg := baseConfig(scheme.SimCMFSD)
	cfg.Rho = 1
	seq := run(t, cfg)
	mfcd := run(t, baseConfig(scheme.SimMFCD))
	if e := stats.RelErr(seq.AvgOnlinePerFile, mfcd.AvgOnlinePerFile, 1); e > 0.15 {
		t.Fatalf("CMFSD ρ=1 (%v) far from MFCD (%v)",
			seq.AvgOnlinePerFile, mfcd.AvgOnlinePerFile)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	cfg := baseConfig(scheme.SimMTSD)
	cfg.Horizon = 500
	cfg.Warmup = 100
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgOnlinePerFile != b.AvgOnlinePerFile || a.CompletedUsers != b.CompletedUsers {
		t.Fatal("same seed produced different results")
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.AvgOnlinePerFile == a.AvgOnlinePerFile {
		t.Fatal("different seeds produced identical results")
	}
}

func TestLittlesLawInSimulation(t *testing.T) {
	// Mean downloader legs ≈ per-file arrival rate × per-file download
	// time. For MTSD at p=1, λ_files = λ₀·K·p = 10, per-file T = 6, so
	// mean downloaders ≈ 60... legs count one at a time per user: the
	// user is a downloader for 6 units per file → L = 10·6 = 60.
	res := run(t, baseConfig(scheme.SimMTSD))
	want := 10.0 * res.AvgDownloadPerFile
	if e := stats.RelErr(res.MeanDownloaders, want, 1); e > 0.2 {
		t.Fatalf("L = %v, λW = %v", res.MeanDownloaders, want)
	}
}

func TestSeedPopulationMatchesGamma(t *testing.T) {
	// Every completed file yields one seeding interval of mean 1/γ = 2:
	// seed legs ≈ file completion rate × 2 = 10·2 = 20 (MTSD).
	res := run(t, baseConfig(scheme.SimMTSD))
	if e := stats.RelErr(res.MeanSeeds, 20, 1); e > 0.2 {
		t.Fatalf("mean seeds %v, want ≈20", res.MeanSeeds)
	}
}

func TestPerClassStatsPopulated(t *testing.T) {
	cfg := baseConfig(scheme.SimMTCD)
	cfg.P = 0.5
	res := run(t, cfg)
	total := 0
	for _, c := range res.Classes {
		total += c.Completed
		if c.Completed > 0 && c.OnlineTime.Mean() < c.DownloadTime.Mean() {
			t.Fatalf("class %d online < download", c.Class)
		}
	}
	if total != res.CompletedUsers {
		t.Fatalf("class totals %d != completed %d", total, res.CompletedUsers)
	}
	// Middle classes must be represented at p=0.5.
	if res.Classes[4].Completed == 0 {
		t.Fatal("class 5 empty at p=0.5")
	}
}

func TestOnlineEqualsDownloadPlusSeedingMTCD(t *testing.T) {
	// Under MTCD a user stays online 1/γ past its last completion (per
	// leg, overlapping): mean online − mean download per user should be
	// positive and bounded by a few 1/γ.
	res := run(t, baseConfig(scheme.SimMTCD))
	diff := res.AvgOnlinePerFile - res.AvgDownloadPerFile
	if diff <= 0 || diff > 3*(1/fastParams.Gamma) {
		t.Fatalf("online−download per file = %v implausible", diff)
	}
}

func TestAdaptDriftsUpWithCheaters(t *testing.T) {
	// With most peers cheating, obedient peers give via virtual seeds but
	// receive little: Δ > 0 and Adapt must push ρ toward 1 (the paper's
	// degeneration-to-MFCD prediction).
	cfg := baseConfig(scheme.SimCMFSD)
	cfg.P = 0.9
	cfg.CheaterFraction = 0.8
	ac := adapt.Config{
		Lower: -0.05, Upper: 0.05, StepUp: 0.2, StepDown: 0.1,
		Period: 5, InitialRho: 0, Consecutive: 1,
	}
	cfg.Adapt = &ac
	res := run(t, cfg)
	if res.FinalRho.N() == 0 {
		t.Fatal("no adaptive peers recorded")
	}
	if res.FinalRho.Mean() < 0.5 {
		t.Fatalf("mean final ρ %v; expected drift toward 1 under cheating", res.FinalRho.Mean())
	}
}

func TestAdaptStaysLowWhenAllObedient(t *testing.T) {
	// With everyone collaborating at high correlation, contributions and
	// benefits roughly balance: ρ should stay well below 1.
	cfg := baseConfig(scheme.SimCMFSD)
	cfg.P = 1
	ac := adapt.Config{
		Lower: -0.05, Upper: 0.05, StepUp: 0.2, StepDown: 0.1,
		Period: 5, InitialRho: 0, Consecutive: 2,
	}
	cfg.Adapt = &ac
	res := run(t, cfg)
	if res.FinalRho.N() == 0 {
		t.Fatal("no adaptive peers recorded")
	}
	if res.FinalRho.Mean() > 0.5 {
		t.Fatalf("mean final ρ %v; expected to stay low when all obey", res.FinalRho.Mean())
	}
}

func TestCheaterFractionOneIsMFCDLike(t *testing.T) {
	cfg := baseConfig(scheme.SimCMFSD)
	cfg.CheaterFraction = 1
	cfg.Rho = 0 // ignored by cheaters
	res := run(t, cfg)
	mfcd := run(t, baseConfig(scheme.SimMFCD))
	if e := stats.RelErr(res.AvgOnlinePerFile, mfcd.AvgOnlinePerFile, 1); e > 0.15 {
		t.Fatalf("all-cheaters CMFSD %v far from MFCD %v",
			res.AvgOnlinePerFile, mfcd.AvgOnlinePerFile)
	}
}

func TestNoCompletionsWithoutArrivals(t *testing.T) {
	cfg := baseConfig(scheme.SimMTSD)
	cfg.P = 1e-12 // essentially no arrivals, but valid
	cfg.Horizon = 10
	cfg.Warmup = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedUsers != 0 {
		t.Fatalf("completed %d users with no arrivals", res.CompletedUsers)
	}
	if !math.IsNaN(res.AvgOnlinePerFile) {
		t.Fatalf("empty average should be NaN, got %v", res.AvgOnlinePerFile)
	}
}

func BenchmarkMTSDRun(b *testing.B) {
	cfg := baseConfig(scheme.SimMTSD)
	cfg.Horizon = 1000
	cfg.Warmup = 200
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCMFSDRun(b *testing.B) {
	cfg := baseConfig(scheme.SimCMFSD)
	cfg.P = 0.9
	cfg.Horizon = 1000
	cfg.Warmup = 200
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMTSDPerClassScaling(t *testing.T) {
	// Class-i users take ≈ i × (T + 1/γ) = 8i online under the rescaled
	// parameters; check classes with decent samples at p = 0.5.
	cfg := baseConfig(scheme.SimMTSD)
	cfg.P = 0.5
	cfg.Horizon = 6000
	cfg.Warmup = 1000
	res := run(t, cfg)
	for _, c := range res.Classes {
		if c.Completed < 80 {
			continue // thin class: skip
		}
		want := 8 * float64(c.Class)
		if e := stats.RelErr(c.OnlineTime.Mean(), want, 1); e > 0.15 {
			t.Fatalf("class %d online %v, fluid predicts %v (err %.0f%%)",
				c.Class, c.OnlineTime.Mean(), want, 100*e)
		}
	}
}

func TestFlashCrowdAndTraceRecorded(t *testing.T) {
	cfg := baseConfig(scheme.SimCMFSD)
	cfg.FlashCrowd = 100
	cfg.SampleEvery = 5
	cfg.Horizon = 200
	cfg.Warmup = 10
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("trace not recorded")
	}
	dl := res.Trace.Series("downloaders")
	if dl == nil || dl.Len() < 10 {
		t.Fatal("downloader series missing or short")
	}
	// The flash crowd is visible at t=0.
	if dl.At(0) < 99 {
		t.Fatalf("flash crowd not present at t=0: %v", dl.At(0))
	}
	if res.Trace.Series("seeds") == nil {
		t.Fatal("seed series missing")
	}
}

func TestFlashCrowdValidation(t *testing.T) {
	cfg := baseConfig(scheme.SimMTSD)
	cfg.FlashCrowd = -1
	if cfg.Validate() == nil {
		t.Fatal("negative flash crowd accepted")
	}
	cfg = baseConfig(scheme.SimMTSD)
	cfg.SampleEvery = -1
	if cfg.Validate() == nil {
		t.Fatal("negative sample interval accepted")
	}
}

func TestHeterogeneousMatchesMultiClassFluid(t *testing.T) {
	// E15: a single torrent (K=1) with two bandwidth classes, validated
	// against the Section-2 multi-class fluid model (assumptions 1+2).
	classes := []BandwidthClass{
		{Name: "broadband", Mu: 0.4, Weight: 4, Fraction: 0.3},
		{Name: "dsl", Mu: 0.1, Weight: 1, Fraction: 0.7},
	}
	cfg := Config{
		Params:    fluid.Params{Mu: 0.2, Eta: 0.5, Gamma: 0.5},
		K:         1,
		Lambda0:   4, // bigger swarm to tame mean-field noise
		P:         1,
		Scheme:    scheme.SimMTSD,
		Horizon:   3000,
		Warmup:    600,
		Seed:      3,
		Bandwidth: classes,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bandwidth) != 2 {
		t.Fatalf("bandwidth stats %d", len(res.Bandwidth))
	}
	// Fluid reference.
	fm, err := fluid.NewMultiClass(0.5, []fluid.Class{
		{Name: "broadband", Mu: 0.4, C: 4, Lambda: 4 * 0.3, Gamma: 0.5},
		{Name: "dsl", Mu: 0.1, C: 1, Lambda: 4 * 0.7, Gamma: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := fluid.SteadyState(fm, ode.SteadyStateOptions{MaxTime: 2e6})
	if err != nil {
		t.Fatal(err)
	}
	dl, _, err := fm.ClassTimes(ss)
	if err != nil {
		t.Fatal(err)
	}
	for i, bs := range res.Bandwidth {
		if bs.Completed < 200 {
			t.Fatalf("%s: only %d completions", bs.Name, bs.Completed)
		}
		got := bs.DownloadTime.Mean()
		if e := stats.RelErr(got, dl[i], 1); e > 0.2 {
			t.Fatalf("%s download %v, fluid predicts %v (err %.0f%%)",
				bs.Name, got, dl[i], 100*e)
		}
	}
	// Ordering: broadband finishes faster.
	if res.Bandwidth[0].DownloadTime.Mean() >= res.Bandwidth[1].DownloadTime.Mean() {
		t.Fatal("broadband not faster than dsl")
	}
}

func TestBandwidthValidation(t *testing.T) {
	cfg := baseConfig(scheme.SimMTSD)
	cfg.Bandwidth = []BandwidthClass{{Name: "a", Mu: 0.1, Weight: 1, Fraction: 0.5}}
	if cfg.Validate() == nil {
		t.Fatal("fractions not summing to 1 accepted")
	}
	cfg.Bandwidth = []BandwidthClass{{Name: "a", Mu: 0, Weight: 1, Fraction: 1}}
	if cfg.Validate() == nil {
		t.Fatal("zero μ accepted")
	}
}

// TestEmptyBandwidthClassLeftOutOfReplicaMean runs a 1 % bandwidth class
// that some replicas never see depart: its replica mean must average the
// replicas it departed in, not a 0 standing in for each of the others.
func TestEmptyBandwidthClassLeftOutOfReplicaMean(t *testing.T) {
	cfg := Config{
		Params: fastParams, K: 3, Lambda0: 1, P: 0.5, Scheme: scheme.SimMTSD,
		Horizon: 200, Warmup: 100,
		Bandwidth: []BandwidthClass{
			{Name: "common", Mu: 0.2, Weight: 1, Fraction: 0.99},
			{Name: "rare", Mu: 0.2, Weight: 1, Fraction: 0.01},
		},
	}
	var samples []replica.Sample
	var want stats.Summary
	for rep := range 8 {
		cfg.Seed = replica.SeedOf(1, 0, rep)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, res.Sample())
		if rare := res.Bandwidth[1].DownloadTime; rare.N() > 0 {
			want.Add(rare.Mean())
		}
	}
	if want.N() == 0 || want.N() == len(samples) {
		t.Fatalf("the rare class departed in %d of %d replicas; the check needs both kinds", want.N(), len(samples))
	}
	key := replica.BandwidthKey("rare", replica.DownloadPerFile)
	got := replica.Reduce(samples).Values[key]
	if got.N() != want.N() || got.Mean() != want.Mean() {
		t.Errorf("%s: mean %v over %d replicas, want %v over the %d it departed in",
			key, got.Mean(), got.N(), want.Mean(), want.N())
	}
}
