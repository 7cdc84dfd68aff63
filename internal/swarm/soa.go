package swarm

import "mfdl/internal/adapt"

// The swarm engine keeps peer state in struct-of-arrays form: every peer
// field is a dense column indexed by slot, and departed peers return their
// slot to a free list so a steady-state swarm allocates nothing per round.
// Slots are recycled; the generation column disambiguates recycled slots
// from stale references (the optimistic-unchoke target is the only
// reference that may outlive a peer). Unique peer ids (the id column)
// never recycle — they key the tit-for-tat receive log and the
// fault-plan streams exactly as the pre-SoA pointer-based engine did.

// noSlot marks an empty slot reference.
const noSlot = int32(-1)

// recvPair is one entry of a peer's per-round receive log: how many
// chunks arrived from the peer with the given unique id. The log replaces
// the former per-round map[int]int, reusing its backing array across
// rounds; lookups are linear scans over a handful of uploaders.
type recvPair struct {
	from int64
	n    int32
}

// peerTable is the struct-of-arrays peer store.
type peerTable struct {
	k          int // files per torrent
	chunks     int // total chunks
	chunkWords int // chunk-bitset words per peer
	fileWords  int // file-bitset words per peer

	// Scalar columns, one entry per slot.
	id             []int64
	gen            []uint32
	class          []int32
	state          []peerState
	cursor         []int32
	finished       []int32
	arrival        []int
	counted        []bool
	cheater        []bool
	vsQuit         []bool
	aborted        []bool
	schedDirty     []bool
	rho            []float64
	uploadFactor   []float64
	downloadRounds []int
	seedLeft       []int
	fileSeedLeft   []int
	abortLeft      []int
	vsQuitLeft     []int
	optSlot        []int32
	optGen         []uint32
	optAge         []int32
	adaptAge       []int32
	virtUp         []int32
	virtDown       []int32
	ctrl           []*adapt.Controller

	// Pooled per-slot slices: truncated on reuse, capacity survives.
	files     [][]int32
	neighbors [][]int32
	recvLast  [][]recvPair
	recvNow   [][]recvPair

	// Flat strided columns.
	haveCount []int32  // stride k: chunks held per file
	have      []uint64 // stride chunkWords: chunk bitset
	sched     []uint64 // stride chunkWords: chunks scheduled this round

	// File masks, stride fileWords: bit f of want is set when the peer
	// wants chunks of file f, of hasAny when it holds at least one, of
	// hasAll when it holds them all. sim.setMasks rebuilds them from the
	// columns above at the top of every round; nothing else writes them.
	want, hasAny, hasAll []uint64

	free []int32 // recycled slots, LIFO
}

func newPeerTable(k, chunks int) *peerTable {
	return &peerTable{
		k:          k,
		chunks:     chunks,
		chunkWords: (chunks + 63) / 64,
		fileWords:  (k + 63) / 64,
	}
}

// alloc returns a zeroed slot, recycling a free one when available.
func (t *peerTable) alloc() int32 {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		t.resetSlot(s)
		return s
	}
	s := int32(len(t.id))
	t.id = append(t.id, 0)
	t.gen = append(t.gen, 0)
	t.class = append(t.class, 0)
	t.state = append(t.state, stateDownloading)
	t.cursor = append(t.cursor, 0)
	t.finished = append(t.finished, 0)
	t.arrival = append(t.arrival, 0)
	t.counted = append(t.counted, false)
	t.cheater = append(t.cheater, false)
	t.vsQuit = append(t.vsQuit, false)
	t.aborted = append(t.aborted, false)
	t.schedDirty = append(t.schedDirty, false)
	t.rho = append(t.rho, 0)
	t.uploadFactor = append(t.uploadFactor, 0)
	t.downloadRounds = append(t.downloadRounds, 0)
	t.seedLeft = append(t.seedLeft, 0)
	t.fileSeedLeft = append(t.fileSeedLeft, 0)
	t.abortLeft = append(t.abortLeft, 0)
	t.vsQuitLeft = append(t.vsQuitLeft, 0)
	t.optSlot = append(t.optSlot, noSlot)
	t.optGen = append(t.optGen, 0)
	t.optAge = append(t.optAge, 0)
	t.adaptAge = append(t.adaptAge, 0)
	t.virtUp = append(t.virtUp, 0)
	t.virtDown = append(t.virtDown, 0)
	t.ctrl = append(t.ctrl, nil)
	t.files = append(t.files, nil)
	t.neighbors = append(t.neighbors, nil)
	t.recvLast = append(t.recvLast, nil)
	t.recvNow = append(t.recvNow, nil)
	t.haveCount = append(t.haveCount, make([]int32, t.k)...)
	t.have = append(t.have, make([]uint64, t.chunkWords)...)
	t.sched = append(t.sched, make([]uint64, t.chunkWords)...)
	t.want = append(t.want, make([]uint64, t.fileWords)...)
	t.hasAny = append(t.hasAny, make([]uint64, t.fileWords)...)
	t.hasAll = append(t.hasAll, make([]uint64, t.fileWords)...)
	return s
}

// resetSlot clears a recycled slot back to the zero state alloc promises.
// The generation was already bumped by freeSlot, so stale references to
// the previous occupant can never match.
func (t *peerTable) resetSlot(s int32) {
	t.id[s] = 0
	t.class[s] = 0
	t.state[s] = stateDownloading
	t.cursor[s] = 0
	t.finished[s] = 0
	t.arrival[s] = 0
	t.counted[s] = false
	t.cheater[s] = false
	t.vsQuit[s] = false
	t.aborted[s] = false
	t.schedDirty[s] = false
	t.rho[s] = 0
	t.uploadFactor[s] = 0
	t.downloadRounds[s] = 0
	t.seedLeft[s] = 0
	t.fileSeedLeft[s] = 0
	t.abortLeft[s] = 0
	t.vsQuitLeft[s] = 0
	t.optSlot[s] = noSlot
	t.optGen[s] = 0
	t.optAge[s] = 0
	t.adaptAge[s] = 0
	t.virtUp[s] = 0
	t.virtDown[s] = 0
	t.ctrl[s] = nil
	t.files[s] = t.files[s][:0]
	t.neighbors[s] = t.neighbors[s][:0]
	t.recvLast[s] = t.recvLast[s][:0]
	t.recvNow[s] = t.recvNow[s][:0]
	hc := t.haveCountOf(s)
	for i := range hc {
		hc[i] = 0
	}
	hv := t.haveOf(s)
	for i := range hv {
		hv[i] = 0
	}
	// sched is cleared at the end of every planning phase; keep the
	// invariant cheap to trust.
	sc := t.schedOf(s)
	for i := range sc {
		sc[i] = 0
	}
}

// freeSlot returns a slot to the free list and bumps its generation.
func (t *peerTable) freeSlot(s int32) {
	t.gen[s]++
	t.free = append(t.free, s)
}

func (t *peerTable) haveCountOf(s int32) []int32 {
	base := int(s) * t.k
	return t.haveCount[base : base+t.k]
}

func (t *peerTable) haveOf(s int32) []uint64 {
	base := int(s) * t.chunkWords
	return t.have[base : base+t.chunkWords]
}

func (t *peerTable) schedOf(s int32) []uint64 {
	base := int(s) * t.chunkWords
	return t.sched[base : base+t.chunkWords]
}

func (t *peerTable) wantOf(s int32) []uint64 {
	base := int(s) * t.fileWords
	return t.want[base : base+t.fileWords]
}

// offerOf is the file mask slot s can serve from: the files it has
// finished when fullOnly (a partial seed's altruistic share), else every
// file it holds a chunk of.
func (t *peerTable) offerOf(s int32, fullOnly bool) []uint64 {
	col := t.hasAny
	if fullOnly {
		col = t.hasAll
	}
	base := int(s) * t.fileWords
	return col[base : base+t.fileWords]
}

func (t *peerTable) hasChunk(s int32, c int32) bool {
	return t.have[int(s)*t.chunkWords+int(c>>6)]&(1<<(uint(c)&63)) != 0
}

func (t *peerTable) setChunk(s int32, c int32) {
	t.have[int(s)*t.chunkWords+int(c>>6)] |= 1 << (uint(c) & 63)
}

func (t *peerTable) setSched(s int32, c int32) {
	t.sched[int(s)*t.chunkWords+int(c>>6)] |= 1 << (uint(c) & 63)
}

func (t *peerTable) clearSched(s int32) {
	sc := t.schedOf(s)
	for i := range sc {
		sc[i] = 0
	}
	t.schedDirty[s] = false
}

// recvNowAdd counts one chunk received by slot s from the peer with
// unique id from, this round.
func (t *peerTable) recvNowAdd(s int32, from int64) {
	log := t.recvNow[s]
	for i := range log {
		if log[i].from == from {
			log[i].n++
			return
		}
	}
	t.recvNow[s] = append(log, recvPair{from: from, n: 1})
}

// recvCount returns how many chunks the receive log records from the peer
// with unique id from; on a slot's recvLast, what it received during the
// previous round (the tit-for-tat ranking key).
func recvCount(log []recvPair, from int64) int32 {
	for _, p := range log {
		if p.from == from {
			return p.n
		}
	}
	return 0
}

// rotateRecv makes this round's receive log the ranking key for the next
// round, reusing the previous log's backing array.
func (t *peerTable) rotateRecv(s int32) {
	t.recvLast[s], t.recvNow[s] = t.recvNow[s], t.recvLast[s][:0]
}
