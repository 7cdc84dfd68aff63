package swarm

// rankEntry is one candidate of the tit-for-tat unchoke ranking.
type rankEntry struct {
	slot int32
	key  int32 // chunks received from the candidate last round
	id   int64 // unique id: deterministic ascending tiebreak
}

// before is the ranking order: received desc, id asc. Ids are unique, so
// it is a strict total order and the fully sorted ranking the goldens pin
// is unique: every rank can be found by selection, without sorting and
// whatever the algorithm. An unchoke needs the first Slots−1 ranks in
// order and, on the rounds the optimistic slot re-draws, the one rank
// the RNG index lands on in the tail behind them.
func (a rankEntry) before(b rankEntry) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	return a.id < b.id
}

// selectTop moves the best min(n, len(e)) entries to the front of e, in
// rank order, and returns how many that is. The rest stay in e[n:] in no
// particular order. It is one pass: the first n entries are
// insertion-sorted, then each later entry that ranks before the current
// last of them displaces it into the tail and is inserted in its place.
// The order is strict and total, so the front is the sorted ranking's
// first n whatever order the tail is left in, and nth over the tail
// finds the same rank as well.
func selectTop(e []rankEntry, n int) int {
	if n > len(e) {
		n = len(e)
	}
	if n == 0 {
		return 0
	}
	top := e[:n]
	for i := 1; i < n; i++ {
		insertLast(top[:i+1])
	}
	for j := n; j < len(e); j++ {
		if e[j].before(top[n-1]) {
			top[n-1], e[j] = e[j], top[n-1]
			insertLast(top)
		}
	}
	return n
}

// insertLast moves the last entry of e, whose other entries are in rank
// order, back to its rank.
func insertLast(e []rankEntry) {
	x := e[len(e)-1]
	i := len(e) - 1
	for ; i > 0 && x.before(e[i-1]); i-- {
		e[i] = e[i-1]
	}
	e[i] = x
}

// nth returns the entry a full sort of e would leave at index k, by
// quickselect (middle pivot: no RNG draw). It reorders e.
func nth(e []rankEntry, k int) rankEntry {
	lo, hi := 0, len(e)-1
	for lo < hi {
		pivot := e[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for e[i].before(pivot) {
				i++
			}
			for pivot.before(e[j]) {
				j--
			}
			if i <= j {
				e[i], e[j] = e[j], e[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return e[k]
		}
	}
	return e[k]
}
