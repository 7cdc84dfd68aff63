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
// particular order.
func selectTop(e []rankEntry, n int) int {
	if n > len(e) {
		n = len(e)
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < len(e); j++ {
			if e[j].before(e[best]) {
				best = j
			}
		}
		e[i], e[best] = e[best], e[i]
	}
	return n
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
