package eventsim

import (
	"math"
	"testing"

	"mfdl/internal/rng"
	"mfdl/internal/scheme"
)

// checkHeapInvariant verifies the min-heap property and the index
// back-pointers.
func checkHeapInvariant(t *testing.T, h *timerHeap) {
	t.Helper()
	for i := range h.e {
		if left := 2*i + 1; left < len(h.e) && h.less(left, i) {
			t.Fatalf("heap violation at %d/%d", i, left)
		}
		if right := 2*i + 2; right < len(h.e) && h.less(right, i) {
			t.Fatalf("heap violation at %d/%d", i, right)
		}
		e := &h.e[i]
		if e.p.legs[e.sub].heapIdx != int32(i) {
			t.Fatalf("stale heapIdx for entry %d: %d", i, e.p.legs[e.sub].heapIdx)
		}
	}
}

// TestTimerHeapRandomOps drives the heap with randomized pushes, pops,
// removals and position re-keys, comparing its minimum against a naive
// scan model after each operation.
func TestTimerHeapRandomOps(t *testing.T) {
	src := rng.New(99)
	h := &timerHeap{}
	type modelPeer struct {
		p  *peer
		at []float64 // model's own copy of each pending time
	}
	var peers []*modelPeer
	// Model: the set of live entries, found by scanning all peers.
	scanMin := func() (seedTimer, bool) {
		best := seedTimer{}
		found := false
		for _, m := range peers {
			p := m.p
			for sub := range p.legs {
				if p.legs[sub].heapIdx < 0 {
					continue
				}
				e := seedTimer{at: m.at[sub], p: p, sub: int32(sub)}
				if !found {
					best, found = e, true
					continue
				}
				if e.at < best.at ||
					(e.at == best.at && (e.p.pos < best.p.pos ||
						(e.p.pos == best.p.pos && e.sub < best.sub))) {
					best = e
				}
			}
		}
		return best, found
	}
	newModelPeer := func() *modelPeer {
		legs := 1 + src.Intn(4)
		p := &peer{pos: int32(len(peers)), legs: make([]leg, legs)}
		for i := range p.legs {
			p.legs[i].heapIdx = -1
		}
		m := &modelPeer{p: p, at: make([]float64, legs)}
		peers = append(peers, m)
		return m
	}
	for i := 0; i < 20; i++ {
		newModelPeer()
	}
	for step := 0; step < 5000; step++ {
		switch op := src.Intn(10); {
		case op < 4: // push a new timer on a random free (peer, sub)
			m := peers[src.Intn(len(peers))]
			sub := int32(src.Intn(len(m.p.legs)))
			if m.p.legs[sub].heapIdx >= 0 {
				continue
			}
			// Coarse times force frequent ties to exercise tie-breaking.
			at := float64(src.Intn(8))
			m.at[sub] = at
			h.push(at, m.p, sub)
		case op < 6: // pop the minimum
			if len(h.e) > 0 {
				h.pop()
			}
		case op < 8: // remove a random entry (fired abort semantics)
			m := peers[src.Intn(len(peers))]
			sub := int32(src.Intn(len(m.p.legs)))
			h.remove(m.p, sub)
		default: // simulate a swap-remove: last peer moves earlier
			if len(peers) < 2 {
				continue
			}
			i := src.Intn(len(peers) - 1)
			last := len(peers) - 1
			moved := peers[last]
			// Drop peers[i]'s entries first, as departPeer does.
			for sub := range peers[i].p.legs {
				h.remove(peers[i].p, int32(sub))
			}
			peers[i] = moved
			peers = peers[:last]
			moved.p.pos = int32(i)
			h.fixPos(moved.p)
			newModelPeer() // keep the population from draining
		}
		checkHeapInvariant(t, h)
		want, wantOK := scanMin()
		got, gotOK := h.min()
		if wantOK != gotOK {
			t.Fatalf("step %d: min presence mismatch: model %v heap %v", step, wantOK, gotOK)
		}
		if gotOK && (got.p != want.p || got.sub != want.sub || got.at != want.at) {
			t.Fatalf("step %d: heap min (%v,%d,%v) != model min (%v,%d,%v)",
				step, got.p.pos, got.sub, got.at, want.p.pos, want.sub, want.at)
		}
	}
}

// oracleConfigs are the configurations the incremental-state oracles run
// under: every scheme with aborts and slow peers (and virtual-seed quits
// under CMFSD), plus bandwidth classes under MTCD and MTSD.
func oracleConfigs() map[string]Config {
	out := map[string]Config{}
	for _, sc := range []scheme.SimScheme{scheme.SimMTCD, scheme.SimMTSD, scheme.SimMFCD, scheme.SimCMFSD} {
		cfg := baseConfig(sc)
		cfg.Horizon = 400
		cfg.Warmup = 50
		cfg.Faults.Seed = 3
		cfg.Faults.AbortRate = 0.01
		cfg.Faults.SlowPeerFraction = 0.2
		cfg.Faults.SlowFactor = 0.5
		if sc == scheme.SimCMFSD {
			cfg.Rho = 0.4
			cfg.Faults.SeedQuitRate = 0.05
		}
		out[sc.String()] = cfg
	}
	for _, sc := range []scheme.SimScheme{scheme.SimMTCD, scheme.SimMTSD} {
		cfg := baseConfig(sc)
		cfg.Horizon = 400
		cfg.Warmup = 50
		cfg.Bandwidth = []BandwidthClass{
			{Name: "slow", Mu: 0.1, Weight: 1, Fraction: 0.5},
			{Name: "fast", Mu: 0.4, Weight: 2, Fraction: 0.5},
		}
		out[sc.String()+"-bandwidth"] = cfg
	}
	return out
}

// drive runs cfg's event loop to the horizon, calling check after every
// event.
func drive(t *testing.T, name string, cfg Config, check func(s *sim, event int)) {
	t.Helper()
	s := newBenchSim(t, cfg)
	events := 0
	for s.stepOnce() {
		events++
		check(s, events)
	}
	if events == 0 {
		t.Fatalf("%s: no events processed", name)
	}
}

// TestPopulationCountersMatchScan runs full simulations and checks the
// incrementally maintained population counters against the populations()
// scan after every event.
func TestPopulationCountersMatchScan(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		drive(t, name, cfg, func(s *sim, event int) {
			dl, seeds := s.populations()
			if dl != s.dlCount || seeds != s.seedCount {
				t.Fatalf("%s event %d: counters (%d,%d) != scan (%d,%d)",
					name, event, s.dlCount, s.seedCount, dl, seeds)
			}
		})
	}
}

// scanTorrentSums re-sums every torrent's seed capacity and downloading
// weight from zero over every peer and leg, in the order the rate pass
// summed them before the sums were kept between events.
func scanTorrentSums(s *sim) (seedCap, weightSum []float64) {
	seedCap = make([]float64, s.cfg.K)
	weightSum = make([]float64, s.cfg.K)
	for _, p := range s.peers {
		for i := range p.legs {
			l := &p.legs[i]
			switch l.state {
			case legSeeding:
				if s.cfg.Scheme == scheme.SimMTSD {
					seedCap[l.torrent] += p.mu
				} else {
					seedCap[l.torrent] += p.mu / float64(p.class)
				}
			case legDownloading:
				weightSum[l.torrent] += legWeight(s, p)
			}
		}
	}
	return seedCap, weightSum
}

// legWeight is a leg's download-capacity weight as the rate pass computed
// it per leg: the peer's weight, split over its legs when concurrent.
func legWeight(s *sim, p *peer) float64 {
	w := p.weight
	if concurrent(s.cfg.Scheme) {
		w /= float64(p.class)
	}
	return w
}

// TestTorrentSumsMatchScan checks, after every event, that the per-torrent
// sums kept between events (brought up to date as the next rate pass would)
// are bit-identical to a from-scratch scan, that every downloading leg's
// cached share term is bit-identical to legWeight/weightSum·seedCap, and
// that the torrent→leg lookup matches the legs. CMFSD pools its seed
// service, re-summed every event, and must keep no per-torrent state.
func TestTorrentSumsMatchScan(t *testing.T) {
	bits := math.Float64bits
	for name, cfg := range oracleConfigs() {
		drive(t, name, cfg, func(s *sim, event int) {
			if cfg.Scheme == scheme.SimCMFSD {
				if s.seedCap != nil || s.weightSum != nil || s.legOf != nil {
					t.Fatalf("%s: CMFSD keeps per-torrent sums", name)
				}
				return
			}
			s.refreshSums()
			seedCap, weightSum := scanTorrentSums(s)
			for tr := range seedCap {
				if bits(s.seedCap[tr]) != bits(seedCap[tr]) || bits(s.weightSum[tr]) != bits(weightSum[tr]) {
					t.Fatalf("%s event %d torrent %d: cached (%v, %v) != scan (%v, %v)",
						name, event, tr, s.seedCap[tr], s.weightSum[tr], seedCap[tr], weightSum[tr])
				}
			}
			groups := len(s.groupWeight)
			for pos, p := range s.peers {
				for i := range p.legs {
					l := &p.legs[i]
					if s.legOf != nil && s.legOf[pos*cfg.K+l.torrent] != int32(i) {
						t.Fatalf("%s event %d: legOf[%d][%d] = %d, want %d",
							name, event, pos, l.torrent, s.legOf[pos*cfg.K+l.torrent], i)
					}
					if l.state != legDownloading {
						continue
					}
					want := legWeight(s, p) / weightSum[l.torrent] * seedCap[l.torrent]
					if got := s.share[l.torrent*groups+p.group]; bits(got) != bits(want) {
						t.Fatalf("%s event %d: share %v != %v", name, event, got, want)
					}
				}
			}
		})
	}
}
