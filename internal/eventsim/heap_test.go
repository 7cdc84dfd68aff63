package eventsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"mfdl/internal/rng"
	"mfdl/internal/scheme"
)

// checkHeapInvariant verifies the min-heap property and the slot index
// back-pointers of a heap over n positions.
func checkHeapInvariant(t *testing.T, h *timerHeap, n int) {
	t.Helper()
	if len(h.slot) != n*h.w {
		t.Fatalf("%d timer slots for %d positions of %d", len(h.slot), n, h.w)
	}
	for i := range h.e {
		if left := 2*i + 1; left < len(h.e) && h.less(left, i) {
			t.Fatalf("heap violation at %d/%d", i, left)
		}
		if right := 2*i + 2; right < len(h.e) && h.less(right, i) {
			t.Fatalf("heap violation at %d/%d", i, right)
		}
		e := &h.e[i]
		if got := h.slot[int(e.pos)*h.w+int(e.sub)]; got != int32(i) {
			t.Fatalf("stale slot for entry %d: %d", i, got)
		}
	}
	pending := 0
	for _, i := range h.slot {
		if i >= 0 {
			pending++
		}
	}
	if pending != len(h.e) {
		t.Fatalf("%d slots point into a heap of %d", pending, len(h.e))
	}
}

// TestTimerHeapRandomOps drives the heap with randomized pushes, pops,
// removals and swap-removes of positions, comparing its minimum against a
// naive scan model after each operation.
func TestTimerHeapRandomOps(t *testing.T) {
	src := rng.New(99)
	const w = 4
	h := &timerHeap{w: w}
	// Model: each position's pending flags and times, found by scanning.
	type modelPos struct {
		pending [w]bool
		at      [w]float64
	}
	var model []modelPos
	scanMin := func() (seedTimer, bool) {
		best := seedTimer{}
		found := false
		for pos, m := range model {
			for sub := range w {
				if !m.pending[sub] {
					continue
				}
				e := seedTimer{at: m.at[sub], pos: int32(pos), sub: int32(sub)}
				if !found || e.at < best.at || (e.at == best.at && (e.pos < best.pos ||
					(e.pos == best.pos && e.sub < best.sub))) {
					best, found = e, true
				}
			}
		}
		return best, found
	}
	addPos := func() {
		model = append(model, modelPos{})
		h.addPos()
	}
	for i := 0; i < 20; i++ {
		addPos()
	}
	for step := 0; step < 5000; step++ {
		pos, sub := src.Intn(len(model)), src.Intn(w)
		switch op := src.Intn(10); {
		case op < 4: // push a new timer on a random free (pos, sub)
			if model[pos].pending[sub] {
				continue
			}
			// Coarse times force frequent ties to exercise tie-breaking.
			at := float64(src.Intn(8))
			model[pos].pending[sub], model[pos].at[sub] = true, at
			h.push(at, int32(pos), int32(sub))
		case op < 6: // pop the minimum
			if e, ok := h.min(); ok {
				model[e.pos].pending[e.sub] = false
				h.pop()
			}
		case op < 8: // remove a random entry (fired abort semantics)
			model[pos].pending[sub] = false
			h.remove(int32(pos), int32(sub))
		default: // swap-remove: the last position moves earlier
			last := len(model) - 1
			if pos == last {
				continue
			}
			// Drop pos's entries first, as departPeer does.
			for sub := range w {
				h.remove(int32(pos), int32(sub))
			}
			model[pos] = model[last]
			model = model[:last]
			h.swapOut(int32(pos), int32(last))
			addPos() // keep the population from draining
		}
		checkHeapInvariant(t, h, len(model))
		want, wantOK := scanMin()
		got, gotOK := h.min()
		if wantOK != gotOK {
			t.Fatalf("step %d: min presence mismatch: model %v heap %v", step, wantOK, gotOK)
		}
		if gotOK && got != want {
			t.Fatalf("step %d: heap min (%d,%d,%v) != model min (%d,%d,%v)",
				step, got.pos, got.sub, got.at, want.pos, want.sub, want.at)
		}
	}
}

// oracleConfigs are the configurations the incremental-state oracles run
// under: every scheme with aborts and slow peers (and virtual-seed quits
// under CMFSD), plus bandwidth classes under MTCD and MTSD, and every
// bit-golden configuration (faults, bandwidth classes, flash crowds, the
// Adapt controller and cheaters).
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
	for name, cfg := range bitGoldenCases() {
		out["bitgolden/"+name] = cfg
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

// TestPopulationCountersMatchScan runs full simulations and checks, after
// every event, the incrementally maintained population counters against
// the populations() scan and every per-position column, the leg slab and
// the timer slots against what the per-peer truth says they must hold
// (checkColumns).
func TestPopulationCountersMatchScan(t *testing.T) {
	for name, cfg := range oracleConfigs() {
		seen := map[uint64]*peerTruth{}
		drive(t, name, cfg, func(s *sim, event int) {
			dl, seeds := s.populations()
			if dl != s.dlCount || seeds != s.seedCount {
				t.Fatalf("%s event %d: counters (%d,%d) != scan (%d,%d)",
					name, event, s.dlCount, s.seedCount, dl, seeds)
			}
			checkColumns(t, s, seen, fmt.Sprintf("%s event %d", name, event))
		})
	}
}

// peerTruth is what a peer's columns must keep while it lives, recorded by
// id when the peer first appears, and the last value seen of those that
// only grow.
type peerTruth struct {
	files            []int32
	rho              float64
	finished, cursor int32
	dlTime           float64
	epoch            uint64
}

// checkColumns rebuilds every position's columns from the per-peer truth
// and compares: the fixed per-peer values (μ, weight and group from the
// configuration, the bandwidth class and the fault plan; the requested
// files and class as first seen; ρ unless Adapt moves it), the leg slab
// against the files and the cursor, the finished count against the leg
// states, the clocks that only grow, and the timer slots against the
// seeding legs. A swap-remove that misses a column moves one peer's value
// under another's id, which this catches at the next event.
func checkColumns(t *testing.T, s *sim, seen map[uint64]*peerTruth, at string) {
	t.Helper()
	n, k := len(s.peers), s.cfg.K
	for i, got := range []int{len(s.class), len(s.group), len(s.finished), len(s.cursor), len(s.mu),
		len(s.weight), len(s.rho), len(s.tft), len(s.vu), len(s.vsQuit), len(s.epochs), len(s.dlTime),
		len(s.legs) / s.w, len(s.files) / k} {
		if got != n {
			t.Fatalf("%s: column %d holds %d positions, want %d", at, i, got, n)
		}
	}
	checkHeapInvariant(t, &s.timers, n)
	for pos := range n {
		p := &s.peers[pos]
		files := s.files[pos*k : pos*k+k]
		class := int32(slices.Index(files, -1))
		if class < 0 {
			class = int32(k)
		}
		tr := seen[p.id]
		if tr == nil {
			tr = &peerTruth{files: slices.Clone(files), rho: s.rho[pos]}
			seen[p.id] = tr
		}
		mu, weight := s.cfg.Mu, 1.0
		if p.bwClass >= 0 {
			mu, weight = s.cfg.Bandwidth[p.bwClass].Mu, s.cfg.Bandwidth[p.bwClass].Weight
		}
		if s.plan != nil {
			if f := s.plan.UploadFactor(p.id); f < 1 {
				mu *= f
			}
		}
		if !slices.Equal(files, tr.files) || s.class[pos] != class ||
			s.group[pos] != int32(s.groupOf(int(class), p.bwClass)) ||
			s.mu[pos] != mu || s.weight[pos] != weight || (p.ctrl == nil && s.rho[pos] != tr.rho) {
			t.Fatalf("%s: position %d (peer %d) holds class %d group %d files %v μ %v weight %v ρ %v, want class %d files %v μ %v weight %v ρ %v",
				at, pos, p.id, s.class[pos], s.group[pos], files, s.mu[pos], s.weight[pos], s.rho[pos],
				class, tr.files, mu, weight, tr.rho)
		}
		if s.finished[pos] < tr.finished || s.cursor[pos] < tr.cursor || s.dlTime[pos] < tr.dlTime ||
			s.epochs[pos] < tr.epoch || s.epochs[pos] > s.epoch {
			t.Fatalf("%s: position %d (peer %d) went back: finished %d cursor %d dlTime %v epoch %d, was %d %d %v %d",
				at, pos, p.id, s.finished[pos], s.cursor[pos], s.dlTime[pos], s.epochs[pos],
				tr.finished, tr.cursor, tr.dlTime, tr.epoch)
		}
		tr.finished, tr.cursor, tr.dlTime, tr.epoch = s.finished[pos], s.cursor[pos], s.dlTime[pos], s.epochs[pos]
		// The leg slab: the requested files in order under the concurrent
		// schemes, the cursor's file under the sequential ones; finished
		// counts the legs past downloading.
		legs := s.active(pos)
		finished := s.cursor[pos]
		for sl, l := range legs {
			want := files[int(s.cursor[pos])+sl]
			if l.torrent != want || l.state == legWaiting || l.remaining < 0 || l.remaining > 1 ||
				(l.state != legDownloading && l.remaining != 0) {
				t.Fatalf("%s: position %d slot %d holds torrent %d state %d remaining %v, want torrent %d",
					at, pos, sl, l.torrent, l.state, l.remaining, want)
			}
			if l.state == legSeeding || l.state == legDone {
				finished++
			}
			if pending := s.timers.slot[pos*s.w+sl] >= 0; pending != (l.state == legSeeding) {
				t.Fatalf("%s: position %d slot %d in state %d has pending timer %v", at, pos, sl, l.state, pending)
			}
		}
		if s.finished[pos] != finished {
			t.Fatalf("%s: position %d finished %d, its legs say %d", at, pos, s.finished[pos], finished)
		}
		// The upload columns, as the rate pass once computed them per peer.
		tft, vu, rho := mu, 0.0, s.rho[pos]
		switch {
		case concurrent(s.cfg.Scheme):
			tft = mu / float64(class)
		case s.cfg.Scheme == scheme.SimCMFSD && class > 1 && finished > 0:
			tft = rho * mu
			if legs[0].state != legSeeding && !s.vsQuit[pos] {
				vu = (1 - rho) * mu
			}
		}
		if math.Float64bits(s.tft[pos]) != math.Float64bits(tft) || math.Float64bits(s.vu[pos]) != math.Float64bits(vu) {
			t.Fatalf("%s: position %d uploads (%v, %v), want (%v, %v)", at, pos, s.tft[pos], s.vu[pos], tft, vu)
		}
	}
}

// scanTorrentSums re-sums every torrent's seed capacity and downloading
// weight from zero over every position and leg, in the order the rate pass
// summed them before the sums were kept between events.
func scanTorrentSums(s *sim) (seedCap, weightSum []float64) {
	seedCap = make([]float64, s.cfg.K)
	weightSum = make([]float64, s.cfg.K)
	for pos := range s.peers {
		for _, l := range s.active(pos) {
			seed, w := legAddends(s, pos, l)
			seedCap[l.torrent] += seed
			weightSum[l.torrent] += w
		}
	}
	return seedCap, weightSum
}

// legAddends is what one leg adds to its torrent's seed capacity and
// downloading weight (under CMFSD, to the pool's real-seed capacity and
// weight), as the rate pass computed it per leg: a seeding leg's upload
// (split over the legs when concurrent), a downloading leg's weight (split
// likewise).
func legAddends(s *sim, pos int, l leg) (seed, w float64) {
	switch l.state {
	case legSeeding:
		if !concurrent(s.cfg.Scheme) {
			return s.mu[pos], 0
		}
		return s.mu[pos] / float64(s.class[pos]), 0
	case legDownloading:
		return 0, legWeight(s, pos)
	}
	return 0, 0
}

// legWeight is a leg's download-capacity weight as the rate pass computed
// it per leg: the peer's weight, split over its legs when concurrent.
func legWeight(s *sim, pos int) float64 {
	w := s.weight[pos]
	if concurrent(s.cfg.Scheme) {
		w /= float64(s.class[pos])
	}
	return w
}

// TestTorrentSumsMatchScan checks, after every event, that the per-torrent
// sums kept between events (brought up to date as the next rate pass would)
// are bit-identical to a from-scratch scan, that every downloading leg's
// cached share term is bit-identical to legWeight/weightSum·seedCap, and
// that the addend columns, rebuilt from the legs, match entry for entry:
// each position's addends in the torrents it has a leg in, 0 in every
// other torrent and at every stride slot past the last position. CMFSD
// pools its seed service, re-summed every event from one addend row, and
// must keep no per-torrent sums.
func TestTorrentSumsMatchScan(t *testing.T) {
	bits := math.Float64bits
	for name, cfg := range oracleConfigs() {
		var wAdd, cAdd []float64
		drive(t, name, cfg, func(s *sim, event int) {
			pooled := cfg.Scheme == scheme.SimCMFSD
			if pooled && (s.seedCap != nil || s.weightSum != nil || s.share != nil) {
				t.Fatalf("%s: CMFSD keeps per-torrent sums", name)
			}
			var seedCap, weightSum []float64
			if !pooled {
				s.refreshSums()
				seedCap, weightSum = scanTorrentSums(s)
				for tr := range seedCap {
					if bits(s.seedCap[tr]) != bits(seedCap[tr]) || bits(s.weightSum[tr]) != bits(weightSum[tr]) {
						t.Fatalf("%s event %d torrent %d: cached (%v, %v) != scan (%v, %v)",
							name, event, tr, s.seedCap[tr], s.weightSum[tr], seedCap[tr], weightSum[tr])
					}
				}
			}
			wAdd, cAdd = slices.Grow(wAdd[:0], len(s.wAdd))[:len(s.wAdd)], slices.Grow(cAdd[:0], len(s.cAdd))[:len(s.cAdd)]
			clear(wAdd)
			clear(cAdd)
			groups := len(s.groupWeight)
			for pos := range s.peers {
				for _, l := range s.active(pos) {
					row := int(l.torrent)
					if pooled {
						row = 0
					}
					i := row*s.capPos + pos
					cAdd[i], wAdd[i] = legAddends(s, pos, l)
					if pooled || l.state != legDownloading {
						continue
					}
					want := legWeight(s, pos) / weightSum[l.torrent] * seedCap[l.torrent]
					if got := s.share[int(l.torrent)*groups+int(s.group[pos])]; bits(got) != bits(want) {
						t.Fatalf("%s event %d: share %v != %v", name, event, got, want)
					}
				}
			}
			for i := range wAdd {
				if bits(s.wAdd[i]) != bits(wAdd[i]) || bits(s.cAdd[i]) != bits(cAdd[i]) {
					t.Fatalf("%s event %d: addends of row %d position %d are (%v, %v), the legs say (%v, %v)",
						name, event, i/s.capPos, i%s.capPos, s.wAdd[i], s.cAdd[i], wAdd[i], cAdd[i])
				}
			}
		})
	}
}
