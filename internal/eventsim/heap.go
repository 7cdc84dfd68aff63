package eventsim

// timerHeap is an indexed binary min-heap over the rate-independent
// absolute timers of the event loop: per-torrent seeding-leg departures
// (MTCD/MFCD/MTSD) and real-seed peer departures (CMFSD). Those are the
// only event times that never change once drawn, so they can wait in a
// heap instead of being rescanned every event. Rate-coupled times
// (completions, abort and quit budgets) must NOT live here: the rate pass
// recomputes them from the current rates and freshly integrated progress
// each event, and storing them as absolutes would change the
// floating-point operation order the goldens pin (see the determinism
// contract in DESIGN.md).
//
// Entries are keyed by (time, peer position, sub) — the peer's index in
// s.peers and the candidate's scan position within the peer — so the heap
// minimum ties exactly like the former linear candidate scan, which kept
// the first candidate at a strictly smaller time. The heap is indexed:
// each entry's slot is kept in legs[sub].heapIdx of its peer, giving
// O(log n) removal when an abort or quit retires a peer with pending
// timers, and O(log n) re-keying when a swap-remove moves a peer to a new
// position.
type timerHeap struct {
	e []seedTimer
}

// seedTimer is one pending seed-departure event. sub is the leg index for
// leg timers and 0 for a CMFSD peer timer (CMFSD never has leg timers, so
// the sub spaces cannot collide).
type seedTimer struct {
	at  float64
	p   *peer
	sub int32
}

// less orders entries by (time, peer position, sub): the tie-break order
// of the former candidate scan.
func (h *timerHeap) less(i, j int) bool {
	a, b := &h.e[i], &h.e[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.p.pos != b.p.pos {
		return a.p.pos < b.p.pos
	}
	return a.sub < b.sub
}

func (h *timerHeap) swap(i, j int) {
	h.e[i], h.e[j] = h.e[j], h.e[i]
	h.e[i].p.legs[h.e[i].sub].heapIdx = int32(i)
	h.e[j].p.legs[h.e[j].sub].heapIdx = int32(j)
}

func (h *timerHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *timerHeap) siftDown(i int) {
	n := len(h.e)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && h.less(right, left) {
			least = right
		}
		if !h.less(least, i) {
			return
		}
		h.swap(i, least)
		i = least
	}
}

// push inserts a timer for (p, sub) firing at the given time.
func (h *timerHeap) push(at float64, p *peer, sub int32) {
	i := len(h.e)
	h.e = append(h.e, seedTimer{at: at, p: p, sub: sub})
	p.legs[sub].heapIdx = int32(i)
	h.siftUp(i)
}

// min returns the earliest timer without removing it.
func (h *timerHeap) min() (seedTimer, bool) {
	if len(h.e) == 0 {
		return seedTimer{}, false
	}
	return h.e[0], true
}

// pop removes the earliest timer.
func (h *timerHeap) pop() {
	h.removeAt(0)
}

// remove deletes the timer of (p, sub) if one is pending.
func (h *timerHeap) remove(p *peer, sub int32) {
	if i := p.legs[sub].heapIdx; i >= 0 {
		h.removeAt(int(i))
	}
}

func (h *timerHeap) removeAt(i int) {
	h.e[i].p.legs[h.e[i].sub].heapIdx = -1
	last := len(h.e) - 1
	if i != last {
		h.e[i] = h.e[last]
		h.e[i].p.legs[h.e[i].sub].heapIdx = int32(i)
	}
	h.e = h.e[:last]
	if i < last {
		// The moved entry can be out of order in either direction.
		h.siftUp(i)
		h.siftDown(i)
	}
}

// fixPos restores the heap invariant for every pending timer of a peer
// whose position in s.peers just changed. Positions only decrease (a
// swap-remove moves the tail peer to an earlier index), so every affected
// key decreased and sifting up suffices. Entries of the same peer keep
// their relative order (same time ordering, same position, same subs), so
// fixing them one at a time is sound.
func (h *timerHeap) fixPos(p *peer) {
	for sub := range p.legs {
		if i := p.legs[sub].heapIdx; i >= 0 {
			h.siftUp(int(i))
		}
	}
}
