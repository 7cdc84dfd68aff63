package swarm

import (
	"testing"

	"mfdl/internal/scheme"
)

// benchConfig is the fixed operating point of BenchmarkSwarmStep: the
// default scheme mix at CMFSD with moderate chunk counts. Population size
// is controlled by the benchmark, not by the arrival rate.
func benchConfig() Config {
	cfg := DefaultConfig
	cfg.Scheme = scheme.SimCMFSD
	cfg.Rho = 0.3
	cfg.Horizon = 1 << 30
	cfg.Warmup = 0
	return cfg
}

// newBenchSwarm builds a sim without running it.
func newBenchSwarm(b testing.TB, cfg Config) *sim {
	b.Helper()
	s, err := newSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// injectBench adds n synthetic peers. It mirrors addPeer's wiring but
// samples neighbors with bounded draws instead of a full permutation, so
// building a 10^5-peer swarm stays O(n·MaxNeighbors) — the production
// draw sequence does not matter for a benchmark population.
func injectBench(s *sim, n int) {
	t := s.t
	for i := 0; i < n; i++ {
		class := s.corr.Class(s.rng.Float64())
		s.permBuf = s.rng.PermInto(s.permBuf, s.cfg.K)
		slot := t.alloc()
		t.id[slot] = s.nextID
		s.nextID++
		t.class[slot] = int32(class)
		fl := t.files[slot]
		for _, f := range s.permBuf[:class] {
			fl = append(fl, int32(f))
		}
		t.files[slot] = fl
		t.arrival[slot] = s.round
		t.counted[slot] = true
		t.rho[slot] = s.cfg.Rho
		want := s.cfg.MaxNeighbors
		if want > len(s.order) {
			want = len(s.order)
		}
		for j := 0; j < want; j++ {
			q := s.order[s.rng.Intn(len(s.order))]
			dup := false
			for _, r := range t.neighbors[slot] {
				if r == q {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			t.neighbors[slot] = append(t.neighbors[slot], q)
			t.neighbors[q] = append(t.neighbors[q], slot)
		}
		t.neighbors[slot] = append(t.neighbors[slot], s.origin)
		s.order = append(s.order, slot)
	}
}

// benchmarkSwarmStep measures one rechoke round at a population held near
// n peers: departures are topped up with fresh synthetic arrivals, so the
// steady-state cost of peer creation (pooled post-refactor) is part of the
// measured loop.
func benchmarkSwarmStep(b *testing.B, n int) {
	s := newBenchSwarm(b, benchConfig())
	injectBench(s, n)
	// Let populations, chunk distribution and TFT history settle.
	for i := 0; i < 5; i++ {
		s.step()
		s.round++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(s.order) < n {
			injectBench(s, n-len(s.order))
		}
		s.step()
		s.round++
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(n)*float64(b.N)/secs, "peers/sec")
	}
}

func BenchmarkSwarmStep(b *testing.B) {
	b.Run("n=1000", func(b *testing.B) { benchmarkSwarmStep(b, 1_000) })
	b.Run("n=10000", func(b *testing.B) { benchmarkSwarmStep(b, 10_000) })
	b.Run("n=100000", func(b *testing.B) {
		if testing.Short() {
			b.Skip("short mode")
		}
		benchmarkSwarmStep(b, 100_000)
	})
}

// chunkSimPoint is DefaultConfig at one of the two operating points of the
// repository benchmark's chunk_sim workload (benchmark/inputs.go): "small"
// holds ~250 peers, "large" ramps to 3-6k inside its horizon, so arrivals
// into a growing swarm — addPeer's permutation — are part of the run.
func chunkSimPoint(large bool, sc scheme.SimScheme, rho float64) Config {
	cfg := DefaultConfig
	cfg.Scheme, cfg.Rho = sc, rho
	cfg.Lambda0, cfg.Horizon, cfg.Warmup = 8, 600, 120
	if large {
		cfg.Lambda0, cfg.Horizon, cfg.Warmup = 100, 120, 45
	}
	return cfg
}

// BenchmarkSwarmRun measures whole runs, arrivals included, which
// BenchmarkSwarmStep's synthetic population leaves out.
func BenchmarkSwarmRun(b *testing.B) {
	for _, size := range []string{"small", "large"} {
		for _, sc := range []struct {
			name   string
			scheme scheme.SimScheme
			rho    float64
		}{{"MFCD", scheme.SimMFCD, 0}, {"CMFSD-rho0.3", scheme.SimCMFSD, 0.3}} {
			cfg := chunkSimPoint(size == "large", sc.scheme, sc.rho)
			b.Run(size+"/"+sc.name, func(b *testing.B) {
				b.ReportAllocs()
				peerRounds := 0.0
				for i := 0; i < b.N; i++ {
					cfg.Seed = uint64(i + 1)
					res, err := Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					peerRounds += (res.MeanDownloaders + res.MeanSeeds) * float64(cfg.Horizon)
				}
				b.ReportMetric(peerRounds/b.Elapsed().Seconds(), "peer-rounds/s")
			})
		}
	}
}
