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
// Entries are keyed by (time, peer position, sub) — sub is the leg slot
// the timer belongs to, 0 for a CMFSD peer timer — so the heap minimum
// ties exactly like the former linear candidate scan, which kept the first
// candidate at a strictly smaller time. The heap is indexed: slot holds
// each (position, sub)'s heap index, a column of w entries per position
// kept in step with the simulator's swap-removes, giving O(log n) removal
// when an abort retires a peer with pending timers, and O(log n)
// re-keying when a swap-remove moves a peer to a new position.
type timerHeap struct {
	e []seedTimer
	// w is the number of subs per position; slot[pos*w+sub] is the heap
	// index of (pos, sub)'s pending timer, -1 when none.
	w    int
	slot []int32
}

// seedTimer is one pending seed-departure event.
type seedTimer struct {
	at       float64
	pos, sub int32
}

// less orders entries by (time, peer position, sub): the tie-break order
// of the former candidate scan.
func (h *timerHeap) less(i, j int) bool {
	a, b := &h.e[i], &h.e[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pos != b.pos {
		return a.pos < b.pos
	}
	return a.sub < b.sub
}

// index records that entry i sits at heap index i.
func (h *timerHeap) index(i int) {
	h.slot[int(h.e[i].pos)*h.w+int(h.e[i].sub)] = int32(i)
}

func (h *timerHeap) swap(i, j int) {
	h.e[i], h.e[j] = h.e[j], h.e[i]
	h.index(i)
	h.index(j)
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

// addPos appends the timer slots of a new last position.
func (h *timerHeap) addPos() {
	for range h.w {
		h.slot = append(h.slot, -1)
	}
}

// push inserts a timer for (pos, sub) firing at the given time.
func (h *timerHeap) push(at float64, pos, sub int32) {
	i := len(h.e)
	h.e = append(h.e, seedTimer{at: at, pos: pos, sub: sub})
	h.index(i)
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

// remove deletes the timer of (pos, sub) if one is pending.
func (h *timerHeap) remove(pos, sub int32) {
	if i := h.slot[int(pos)*h.w+int(sub)]; i >= 0 {
		h.removeAt(int(i))
	}
}

func (h *timerHeap) removeAt(i int) {
	h.slot[int(h.e[i].pos)*h.w+int(h.e[i].sub)] = -1
	last := len(h.e) - 1
	if i != last {
		h.e[i] = h.e[last]
		h.index(i)
	}
	h.e = h.e[:last]
	if i < last {
		// The moved entry can be out of order in either direction.
		h.siftUp(i)
		h.siftDown(i)
	}
}

// swapOut follows a swap-remove that moves the last position, from, into
// position to, whose timers must already be removed: from's pending
// timers are re-keyed to position to and its slots dropped. Positions only
// decrease, so every re-keyed entry's key decreased and sifting up
// suffices. Entries of the same peer keep their relative order (same
// times, same position, same subs), so fixing them one at a time is
// sound.
func (h *timerHeap) swapOut(to, from int32) {
	w := int32(h.w)
	if to != from {
		moved := h.slot[to*w : to*w+w]
		copy(moved, h.slot[from*w:])
		for _, i := range moved {
			if i >= 0 {
				h.e[i].pos = to
			}
		}
		for sub := range moved {
			if i := moved[sub]; i >= 0 {
				h.siftUp(int(i))
			}
		}
	}
	h.slot = h.slot[:from*w]
}
