package swarm

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// byRank is the full sort the engine used to run per unchoke; it survives
// here as the oracle selection is compared against.
type byRank []rankEntry

func (r byRank) Len() int           { return len(r) }
func (r byRank) Less(i, j int) bool { return r[i].before(r[j]) }
func (r byRank) Swap(i, j int)      { r[i], r[j] = r[j], r[i] }

// rankedEntries builds one entry per key, with unique ids in an order
// unrelated to position; keys fold to four values so most comparisons
// fall through to the id tiebreak.
func rankedEntries(keys []uint8, seed int64) []rankEntry {
	ids := rand.New(rand.NewSource(seed)).Perm(len(keys))
	e := make([]rankEntry, len(keys))
	for i, k := range keys {
		e[i] = rankEntry{slot: int32(i), key: int32(k % 4), id: int64(ids[i])}
	}
	return e
}

// checkSelection asserts that selectTop(n) followed by nth over the rest
// yields, at every index, what the fully sorted slice holds there.
func checkSelection(t *testing.T, entries []rankEntry, n int) bool {
	t.Helper()
	sorted := append(byRank(nil), entries...)
	sort.Sort(sorted)
	e := append([]rankEntry(nil), entries...)
	got := selectTop(e, n)
	if want := min(n, len(e)); got != want {
		t.Errorf("selectTop(len %d, n %d) = %d, want %d", len(e), n, got, want)
		return false
	}
	for i := 0; i < got; i++ {
		if e[i] != sorted[i] {
			t.Errorf("len %d n %d: top[%d] = %+v, sorted has %+v", len(e), n, i, e[i], sorted[i])
			return false
		}
	}
	for k := range e[got:] {
		pool := append([]rankEntry(nil), e[got:]...)
		if x := nth(pool, k); x != sorted[got+k] {
			t.Errorf("len %d n %d: nth(pool, %d) = %+v, sorted has %+v", len(e), n, k, x, sorted[got+k])
			return false
		}
	}
	return true
}

func TestSelectionMatchesFullSort(t *testing.T) {
	// The corners by hand: no candidates, n = 0, n past the end, an empty
	// pool (n = len) and a pool of one.
	for _, c := range []struct{ size, n int }{
		{0, 0}, {0, 3}, {1, 0}, {1, 1}, {1, 3}, {4, 0}, {4, 3}, {4, 4}, {4, 9}, {3, 2},
	} {
		keys := make([]uint8, c.size)
		for i := range keys {
			keys[i] = uint8(i * 7)
		}
		checkSelection(t, rankedEntries(keys, int64(c.size)), c.n)
	}
	prop := func(keys []uint8, seed int64, n uint8) bool {
		// n ranges a little past len so "more slots than candidates" is
		// as likely as any other split.
		return checkSelection(t, rankedEntries(keys, seed), int(n)%(len(keys)+3))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
