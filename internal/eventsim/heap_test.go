package eventsim

import (
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/faults"
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
		if e.p.heapIdx[e.sub] != int32(i) {
			t.Fatalf("stale heapIdx for entry %d: %d", i, e.p.heapIdx[e.sub])
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
			for sub := range p.heapIdx {
				if p.heapIdx[sub] < 0 {
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
		p := &peer{pos: int32(len(peers)), heapIdx: make([]int32, legs)}
		for i := range p.heapIdx {
			p.heapIdx[i] = -1
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
			sub := int32(src.Intn(len(m.p.heapIdx)))
			if m.p.heapIdx[sub] >= 0 {
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
			sub := int32(src.Intn(len(m.p.heapIdx)))
			h.remove(m.p, sub)
		default: // simulate a swap-remove: last peer moves earlier
			if len(peers) < 2 {
				continue
			}
			i := src.Intn(len(peers) - 1)
			last := len(peers) - 1
			moved := peers[last]
			// Drop peers[i]'s entries first, as departPeer does.
			for sub := range peers[i].p.heapIdx {
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

// TestPopulationCountersMatchScan runs full simulations and checks the
// incrementally maintained population counters against the populations()
// scan after every event.
func TestPopulationCountersMatchScan(t *testing.T) {
	for _, sc := range []scheme.SimScheme{scheme.SimMTCD, scheme.SimMTSD, scheme.SimMFCD, scheme.SimCMFSD} {
		cfg := baseConfig(sc)
		cfg.Horizon = 400
		cfg.Warmup = 50
		cfg.Faults.Seed = 3
		cfg.Faults.AbortRate = 0.01
		if sc == scheme.SimCMFSD {
			cfg.Rho = 0.4
			cfg.Faults.SeedQuitRate = 0.05
		}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		corr, err := correlation.New(cfg.K, cfg.P, cfg.Lambda0)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := faults.NewPlan(cfg.Faults.Mixed(cfg.Seed), nil)
		if err != nil {
			t.Fatal(err)
		}
		s := &sim{
			cfg:  cfg,
			corr: corr,
			rng:  rng.New(cfg.Seed),
			plan: plan,
			res:  &Result{Config: cfg, Classes: make([]ClassStats, cfg.K)},
		}
		for i := range s.res.Classes {
			s.res.Classes[i].Class = i + 1
		}
		if !s.init() {
			t.Fatalf("%v: event loop refused to start", sc)
		}
		events := 0
		for s.stepOnce() {
			events++
			dl, seeds := s.populations()
			if dl != s.dlCount || seeds != s.seedCount {
				t.Fatalf("%v event %d: counters (%d,%d) != scan (%d,%d)",
					sc, events, s.dlCount, s.seedCount, dl, seeds)
			}
		}
		if events == 0 {
			t.Fatalf("%v: no events processed", sc)
		}
	}
}
