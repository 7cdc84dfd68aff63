package main

import (
	"math"
	"time"
)

// heldOutSeed is reserved for confirming a claim on inputs nobody tuned
// against (choosing-metrics §6.3). Do not run it while developing a change.
const heldOutSeed = 20260930

// gen is the harness-local generator (splitmix64). The code under test
// never sees it, only the inputs it produced.
type gen struct{ s uint64 }

func (g *gen) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	z := g.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float draws uniformly from [0, 1).
func (g *gen) float() float64 { return float64(g.next()>>11) / (1 << 53) }

// jittered spreads n values evenly over [lo, hi] and moves each by a seeded
// draw of at most a quarter step either way: the grid keeps its shape (and
// its cost), but no value — hence no disk-cache fingerprint — is shared
// between two seeds.
func (g *gen) jittered(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	step := (hi - lo) / float64(n)
	for i := range out {
		out[i] = lo + (float64(i)+0.5)*step + (g.float()-0.5)*step/2
	}
	return out
}

// scaled shrinks a count for the smoke test; floor keeps the workload
// meaningful (a CI needs two replicas, a grid two values per axis).
func scaled(n int, scale float64, floor int) int {
	m := int(math.Round(float64(n) * scale))
	if m < floor {
		return floor
	}
	return m
}

// inputs is everything a run feeds the code under test, as plain data: the
// same (seed, scale) always yields the same bytes.
type inputs struct {
	Seed  uint64
	Scale float64

	// fluid_cold: CMFSD p × ρ surface.
	ColdP, ColdRho []float64
	// fluid_warm: MTCD p × λ₀ × ρ grid (ρ is ignored by MTCD, so each
	// (p, λ₀) pair is one disk entry shared by len(WarmRho) cells).
	WarmP, WarmLambda, WarmRho []float64
	WarmReplays                int

	// SimSeed is the base seed of every sim-replica job.
	SimSeed uint64
	// flow_sim: four schemes × FlowP at the E9 scale.
	FlowP                   []float64
	FlowHorizon, FlowWarmup float64
	FlowReplicas            int
	// chunk_sim: a small and a large population in one job.
	SmallLambda, LargeLambda  float64
	SmallHorizon, SmallWarmup int
	LargeHorizon, LargeWarmup int
	ChunkReplicas             int
	// fabric_fine: FabricP tiny flow configurations × FabricReplicas.
	FabricP        []float64
	FabricReplicas int

	// ProbeWall is how long one single-call probe keeps calling.
	ProbeWall time.Duration
}

func newInputs(seed uint64, scale float64) inputs {
	g := &gen{s: seed}
	in := inputs{Seed: seed, Scale: scale}

	side := scaled(9, math.Sqrt(scale), 2)
	in.ColdP = g.jittered(0.1, 0.95, side)
	in.ColdRho = g.jittered(0.05, 0.95, side)

	in.WarmP = g.jittered(0.05, 0.95, scaled(251, scale, 8))
	in.WarmLambda = g.jittered(0.5, 2, scaled(10, math.Sqrt(scale), 2))
	in.WarmRho = g.jittered(0.05, 0.95, 8)
	in.WarmReplays = 10

	in.SimSeed = g.next()
	in.FlowP = []float64{0.5, 0.9}
	in.FlowHorizon = math.Max(200, simHorizon*scale)
	in.FlowWarmup = in.FlowHorizon / 5
	in.FlowReplicas = scaled(4, scale, 2)

	in.SmallLambda, in.LargeLambda = 8, math.Max(8, 100*scale)
	in.SmallHorizon = scaled(600, scale, 100)
	in.SmallWarmup = in.SmallHorizon / 5
	in.LargeHorizon = scaled(120, scale, 100)
	in.LargeWarmup = in.LargeHorizon * 3 / 8
	in.ChunkReplicas = 2

	n := scaled(32, math.Sqrt(scale), 4)
	in.FabricP = make([]float64, n)
	for i := range in.FabricP {
		in.FabricP[i] = 0.3 + 0.6*float64(i)/float64(n-1)
	}
	in.FabricReplicas = scaled(24, math.Sqrt(scale), 2)
	in.ProbeWall = time.Duration(scaled(100, scale, 2)) * time.Millisecond
	return in
}
