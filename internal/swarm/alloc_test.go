package swarm

import (
	"runtime"
	"testing"

	"mfdl/internal/scheme"
)

// TestStepAllocsSteadyState pins the SoA refactor's core promise: once the
// peer table, the scratch buffers and the per-slot pools are warm, a
// rechoke round allocates nothing. The measured swarm is a constant
// population caught mid-download — arrivals are suppressed (they
// legitimately allocate while pools grow to a new population high-water
// mark) and the files are long enough that nobody completes or departs
// inside the window. The received-chunk logs are pre-grown to a generous
// capacity: growing a pool past its high-water mark is allowed to
// allocate, appending within capacity is not.
func TestStepAllocsSteadyState(t *testing.T) {
	cfg := benchConfig()
	cfg.Lambda0 = 1e-300    // Poisson draw still happens; arrivals never do
	cfg.ChunksPerFile = 512 // nobody finishes a file inside the window
	s := newBenchSwarm(t, cfg)
	injectBench(s, 1000)
	for i := 0; i < 20; i++ {
		s.step()
		s.round++
	}
	for i := range s.t.recvNow {
		if cap(s.t.recvNow[i]) < 64 {
			s.t.recvNow[i] = append(make([]recvPair, 0, 64), s.t.recvNow[i]...)
		}
		if cap(s.t.recvLast[i]) < 64 {
			s.t.recvLast[i] = append(make([]recvPair, 0, 64), s.t.recvLast[i]...)
		}
	}
	before := len(s.order)
	avg := testing.AllocsPerRun(50, func() {
		s.step()
		s.round++
	})
	if avg != 0 {
		t.Errorf("steady-state round allocates %v times, want 0", avg)
	}
	if len(s.order) != before {
		t.Fatalf("population moved %d -> %d during measurement; test is not steady-state", before, len(s.order))
	}
}

// TestRunAllocBudget covers what the steady-state test leaves out on
// purpose: arrivals. A whole Run at the repository benchmark's large
// chunk_sim point, cut to 60 rounds, admits ~6 000 peers into a swarm
// that only grows, so every addPeer draws a permutation one longer than
// the last. With scratch that grows to exactly the size asked, that is
// one reallocation per arrival (158 MB here); grown geometrically the run
// stays near 12 MB, nearly all of it the peer table itself.
func TestRunAllocBudget(t *testing.T) {
	cfg := chunkSimPoint(true, scheme.SimMFCD, 0)
	cfg.Horizon, cfg.Warmup = 60, 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const budget = 25 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("Run allocated %.1f MB, budget %d MB", float64(got)/(1<<20), budget>>20)
	}
}

// TestSwarmSmoke100k drives a 10^5-peer swarm through a few rechoke rounds
// — the million-peer trajectory's first waypoint. Skipped in -short runs.
func TestSwarmSmoke100k(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := newBenchSwarm(t, benchConfig())
	injectBench(s, 100_000)
	for i := 0; i < 3; i++ {
		s.step()
		s.round++
	}
	if len(s.order) < 90_000 {
		t.Fatalf("population collapsed to %d peers", len(s.order))
	}
	if s.res.ChunksTransferred == 0 {
		t.Fatal("no chunks moved in three rounds")
	}
}
