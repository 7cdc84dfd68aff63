package swarm

import (
	"math"
	"testing"

	"mfdl/internal/adapt"
	"mfdl/internal/scheme"
)

func cfgWith(mutate func(*Config)) Config {
	c := DefaultConfig
	if mutate != nil {
		mutate(&c)
	}
	return c
}

func run(t *testing.T, c Config) *Result {
	t.Helper()
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestValidation(t *testing.T) {
	if err := DefaultConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.K = 0 },
		func(c *Config) { c.ChunksPerFile = 0 },
		func(c *Config) { c.Lambda0 = 0 },
		func(c *Config) { c.P = 0 },
		func(c *Config) { c.Scheme = scheme.SimScheme(7) },
		func(c *Config) { c.Rho = 2 },
		func(c *Config) { c.CheaterFraction = -1 },
		func(c *Config) { c.UploadPerRound = 0 },
		func(c *Config) { c.Slots = 1 },
		func(c *Config) { c.OptimisticEvery = 0 },
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.MaxNeighbors = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Warmup = c.Horizon },
		func(c *Config) { c.OriginUpload = -3 },
	}
	for i, mutate := range cases {
		bad := cfgWith(mutate)
		if bad.Validate() == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestSchemeString(t *testing.T) {
	if scheme.SimMFCD.String() != "MFCD" || scheme.SimCMFSD.String() != "CMFSD" {
		t.Fatal("scheme names wrong")
	}
}

func TestSimulationProducesCompletions(t *testing.T) {
	res := run(t, DefaultConfig)
	if res.CompletedUsers < 50 {
		t.Fatalf("only %d completions", res.CompletedUsers)
	}
	if res.ChunksTransferred == 0 {
		t.Fatal("no chunks moved")
	}
	if math.IsNaN(res.AvgOnlinePerFile) || res.AvgOnlinePerFile <= 0 {
		t.Fatalf("bad average online per file %v", res.AvgOnlinePerFile)
	}
	// Online includes the seeding tail: must exceed download.
	if res.AvgOnlinePerFile <= res.AvgDownloadPerFile {
		t.Fatalf("online %v <= download %v", res.AvgOnlinePerFile, res.AvgDownloadPerFile)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	c := cfgWith(func(c *Config) { c.Horizon = 400; c.Warmup = 100 })
	a := run(t, c)
	b := run(t, c)
	if a.CompletedUsers != b.CompletedUsers || a.ChunksTransferred != b.ChunksTransferred {
		t.Fatal("same seed diverged")
	}
	c.Seed = 99
	d := run(t, c)
	if d.ChunksTransferred == a.ChunksTransferred && d.CompletedUsers == a.CompletedUsers {
		t.Fatal("different seeds identical")
	}
}

func TestClassTotalsConsistent(t *testing.T) {
	res := run(t, DefaultConfig)
	total := 0
	for _, cs := range res.Classes {
		total += cs.Completed
		if cs.Completed > 0 && cs.OnlineTime.Mean() < cs.DownloadTime.Mean() {
			t.Fatalf("class %d online < download", cs.Class)
		}
	}
	if total != res.CompletedUsers {
		t.Fatalf("class totals %d != %d", total, res.CompletedUsers)
	}
}

func TestDownloadScalesWithClass(t *testing.T) {
	// A class-3 user needs 3× the chunks of a class-1 user; its download
	// time must be clearly larger under either scheme.
	for _, sc := range []scheme.SimScheme{scheme.SimMFCD, scheme.SimCMFSD} {
		c := cfgWith(func(c *Config) {
			c.Scheme = sc
			c.P = 0.5
			c.Horizon = 2000
			c.Warmup = 300
		})
		res := run(t, c)
		c1, c3 := res.Classes[0], res.Classes[2]
		if c1.Completed < 20 || c3.Completed < 20 {
			t.Fatalf("%v: thin classes (%d, %d)", sc, c1.Completed, c3.Completed)
		}
		if c3.DownloadTime.Mean() <= c1.DownloadTime.Mean() {
			t.Fatalf("%v: class-3 download %v not larger than class-1 %v",
				sc, c3.DownloadTime.Mean(), c1.DownloadTime.Mean())
		}
	}
}

func TestCMFSDCollaborationBeatsMFCDAtHighCorrelation(t *testing.T) {
	// The paper's central claim at the mechanism level: with high file
	// correlation, sequential downloading with partial seeding (ρ = 0)
	// beats concurrent random-chunk downloading.
	mfcd := run(t, cfgWith(func(c *Config) { c.Scheme = scheme.SimMFCD; c.P = 0.9; c.Horizon = 2500; c.Warmup = 400 }))
	cmfsd := run(t, cfgWith(func(c *Config) { c.Scheme = scheme.SimCMFSD; c.Rho = 0; c.P = 0.9; c.Horizon = 2500; c.Warmup = 400 }))
	if cmfsd.CompletedUsers < 100 || mfcd.CompletedUsers < 100 {
		t.Fatalf("thin runs: %d, %d", cmfsd.CompletedUsers, mfcd.CompletedUsers)
	}
	if cmfsd.AvgOnlinePerFile >= mfcd.AvgOnlinePerFile {
		t.Fatalf("CMFSD ρ=0 (%v rounds/file) not better than MFCD (%v)",
			cmfsd.AvgOnlinePerFile, mfcd.AvgOnlinePerFile)
	}
}

func TestRho1CMFSDCloseToMFCDOrdering(t *testing.T) {
	// With ρ = 1 there is no collaboration; CMFSD loses its advantage
	// (it may differ from MFCD through sequential piece selection, but
	// must be clearly worse than ρ = 0).
	rho0 := run(t, cfgWith(func(c *Config) { c.Scheme = scheme.SimCMFSD; c.Rho = 0; c.Horizon = 2000; c.Warmup = 300 }))
	rho1 := run(t, cfgWith(func(c *Config) { c.Scheme = scheme.SimCMFSD; c.Rho = 1; c.Horizon = 2000; c.Warmup = 300 }))
	if rho0.AvgOnlinePerFile >= rho1.AvgOnlinePerFile {
		t.Fatalf("ρ=0 (%v) should beat ρ=1 (%v)", rho0.AvgOnlinePerFile, rho1.AvgOnlinePerFile)
	}
}

func TestChunkConservation(t *testing.T) {
	// ChunksTransferred must equal the sum of all chunks ever held by
	// departed+alive peers (each chunk a peer holds arrived exactly once).
	c := cfgWith(func(c *Config) { c.Horizon = 300; c.Warmup = 0 })
	res := run(t, c)
	if res.ChunksTransferred <= 0 {
		t.Fatal("no transfers recorded")
	}
	// Upload budget sanity: total transfers cannot exceed the total
	// upload capacity ever offered (peers + origin).
	maxCapacity := (c.Horizon) * (c.UploadPerRound*(res.ArrivedUsers+200) + c.OriginUpload + c.UploadPerRound)
	if res.ChunksTransferred > maxCapacity {
		t.Fatalf("transfers %d exceed plausible capacity %d", res.ChunksTransferred, maxCapacity)
	}
}

func TestAdaptRunsInSwarm(t *testing.T) {
	ac := adapt.Config{
		Lower: -1, Upper: 1, StepUp: 0.2, StepDown: 0.1,
		Period: 5, InitialRho: 0, Consecutive: 1,
	}
	c := cfgWith(func(c *Config) {
		c.Scheme = scheme.SimCMFSD
		c.Adapt = &ac
		c.Horizon = 1200
		c.Warmup = 200
	})
	res := run(t, c)
	if res.FinalRho.N() == 0 {
		t.Fatal("no adaptive peers recorded")
	}
	if res.FinalRho.Mean() < 0 || res.FinalRho.Mean() > 1 {
		t.Fatalf("mean ρ %v outside [0,1]", res.FinalRho.Mean())
	}
}

func TestCheatersRaiseObedientRho(t *testing.T) {
	// With many cheaters, the adaptive obedient peers must end with a
	// higher ρ than in an all-obedient swarm.
	ac := adapt.Config{
		Lower: -0.3, Upper: 0.3, StepUp: 0.25, StepDown: 0.25,
		Period: 10, InitialRho: 0, Consecutive: 1,
	}
	clean := run(t, cfgWith(func(c *Config) {
		c.Scheme = scheme.SimCMFSD
		c.Adapt = &ac
		c.Horizon = 2000
		c.Warmup = 300
	}))
	cheated := run(t, cfgWith(func(c *Config) {
		c.Scheme = scheme.SimCMFSD
		c.Adapt = &ac
		c.CheaterFraction = 0.8
		c.Horizon = 2000
		c.Warmup = 300
	}))
	if clean.FinalRho.N() == 0 || cheated.FinalRho.N() == 0 {
		t.Fatal("missing adaptive peers")
	}
	if cheated.FinalRho.Mean() <= clean.FinalRho.Mean() {
		t.Fatalf("cheaters should raise ρ: clean %v, cheated %v",
			clean.FinalRho.Mean(), cheated.FinalRho.Mean())
	}
}

func TestK1SingleFileTorrent(t *testing.T) {
	c := cfgWith(func(c *Config) {
		c.K = 1
		c.P = 0.9
		c.Scheme = scheme.SimMFCD
		c.Horizon = 800
		c.Warmup = 150
	})
	res := run(t, c)
	if res.CompletedUsers < 30 {
		t.Fatalf("single-file torrent starved: %d completions", res.CompletedUsers)
	}
	if res.Classes[0].Completed != res.CompletedUsers {
		t.Fatal("K=1 should only have class-1 users")
	}
}

func TestMeanPopulationsPositive(t *testing.T) {
	res := run(t, DefaultConfig)
	if res.MeanDownloaders <= 0 || res.MeanSeeds <= 0 {
		t.Fatalf("populations: dl=%v seeds=%v", res.MeanDownloaders, res.MeanSeeds)
	}
}

func BenchmarkSwarmRound(b *testing.B) {
	c := DefaultConfig
	c.Horizon = 200
	c.Warmup = 50
	for i := 0; i < b.N; i++ {
		c.Seed = uint64(i + 1)
		if _, err := Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSequentialPeersFinishFilesInRequestOrder(t *testing.T) {
	// Under CMFSD, any snapshot of a downloading peer must show its
	// completed files forming a prefix of its request order — the
	// partial-seed invariant. We verify through the simulator's own
	// bookkeeping: cursor equals the number of finished files.
	c := cfgWith(func(c *Config) {
		c.Scheme = scheme.SimCMFSD
		c.Horizon = 400
		c.Warmup = 0
	})
	res := run(t, c)
	if res.CompletedUsers == 0 {
		t.Fatal("nothing completed")
	}
	// Behavioral check via per-class download ordering: by construction
	// cursor advances only when files complete in order, so a violated
	// invariant would deadlock progress; completion is the signal.
	if res.Classes[len(res.Classes)-1].Completed == 0 && res.Classes[0].Completed == 0 {
		t.Fatal("no class completed")
	}
}

func TestHigherEtaSpeedsSwarm(t *testing.T) {
	slow := run(t, cfgWith(func(c *Config) { c.TFTEfficiency = 0.3; c.Scheme = scheme.SimMFCD }))
	fast := run(t, cfgWith(func(c *Config) { c.TFTEfficiency = 1.0; c.Scheme = scheme.SimMFCD }))
	if fast.AvgOnlinePerFile >= slow.AvgOnlinePerFile {
		t.Fatalf("η=1 (%v) should beat η=0.3 (%v)",
			fast.AvgOnlinePerFile, slow.AvgOnlinePerFile)
	}
}

func TestMTSDSchemeRuns(t *testing.T) {
	c := cfgWith(func(c *Config) {
		c.Scheme = scheme.SimMTSD
		c.Horizon = 2000
		c.Warmup = 300
	})
	res := run(t, c)
	if res.CompletedUsers < 100 {
		t.Fatalf("MTSD thin: %d completions", res.CompletedUsers)
	}
	// Online time includes the per-file pauses: clearly above download.
	if res.AvgOnlinePerFile < res.AvgDownloadPerFile+0.5/c.Gamma {
		t.Fatalf("MTSD pauses missing: online %v vs download %v",
			res.AvgOnlinePerFile, res.AvgDownloadPerFile)
	}
	if scheme.SimMTSD.String() != "MTSD" {
		t.Fatal("scheme name")
	}
}

func TestChunkLevelSchemeOrderingByRegime(t *testing.T) {
	// The MTSD-vs-MFCD ordering is regime-dependent at the chunk level.
	// The paper's fluid regime has per-file download time dominating seed
	// residence (T = 60 vs 1/γ = 20): sequential wins. In a seed-rich
	// swarm where files download in a couple of rounds, MTSD's per-file
	// pauses (mean 1/γ) dominate its online time and the ordering flips.
	mk := func(sc scheme.SimScheme, gamma float64) *Result {
		c := cfgWith(func(c *Config) {
			c.Scheme = sc
			c.Rho = 0
			c.P = 0.9
			c.Gamma = gamma
			c.Horizon = 2500
			c.Warmup = 400
		})
		return run(t, c)
	}
	// Seed-rich regime (γ = 0.1 → 10-round pauses, ~2-round files):
	// MTSD loses on online time but wins on download time per file
	// (focused downloading), exactly the fluid model's split.
	mfcdRich := mk(scheme.SimMFCD, 0.1)
	mtsdRich := mk(scheme.SimMTSD, 0.1)
	if mtsdRich.AvgOnlinePerFile <= mfcdRich.AvgOnlinePerFile {
		t.Fatalf("seed-rich regime: MTSD online %v should exceed MFCD %v (pauses dominate)",
			mtsdRich.AvgOnlinePerFile, mfcdRich.AvgOnlinePerFile)
	}
	if mtsdRich.AvgDownloadPerFile >= mfcdRich.AvgDownloadPerFile {
		t.Fatalf("MTSD download/file %v should beat MFCD %v (focused downloading)",
			mtsdRich.AvgDownloadPerFile, mfcdRich.AvgDownloadPerFile)
	}
	// Seed-scarce regime (γ = 0.8): the paper's ordering appears —
	// sequential beats concurrent on online time too.
	mfcdScarce := mk(scheme.SimMFCD, 0.8)
	mtsdScarce := mk(scheme.SimMTSD, 0.8)
	if mtsdScarce.AvgOnlinePerFile >= mfcdScarce.AvgOnlinePerFile {
		t.Fatalf("seed-scarce regime: MTSD %v should beat MFCD %v",
			mtsdScarce.AvgOnlinePerFile, mfcdScarce.AvgOnlinePerFile)
	}
	t.Logf("rich: MFCD %.2f MTSD %.2f; scarce: MFCD %.2f MTSD %.2f (online/file)",
		mfcdRich.AvgOnlinePerFile, mtsdRich.AvgOnlinePerFile,
		mfcdScarce.AvgOnlinePerFile, mtsdScarce.AvgOnlinePerFile)
}

func TestTraceRecording(t *testing.T) {
	c := cfgWith(func(c *Config) {
		c.Horizon = 300
		c.Warmup = 50
		c.SampleEvery = 10
	})
	res := run(t, c)
	if res.Trace == nil {
		t.Fatal("trace missing")
	}
	dl := res.Trace.Series("downloaders")
	if dl == nil || dl.Len() != 30 {
		t.Fatalf("downloader series %v", dl)
	}
	if res.Trace.Series("seeds") == nil {
		t.Fatal("seed series missing")
	}
	// Populations grow from the empty start.
	if dl.At(0) != 0 {
		t.Fatalf("swarm not empty at round 0: %v", dl.At(0))
	}
	if dl.Final() <= 0 {
		t.Fatal("no downloaders at the horizon")
	}
}
