package swarm

import (
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mfdl/internal/scheme"
)

// refWantsFile and refInterested are the per-neighbour column walks the
// engine ran before the file masks replaced them, kept verbatim as the
// oracle: they read peer state directly and never look at a mask.

func refWantsFile(s *sim, p int32, f int) bool {
	t := s.t
	if t.state[p] != stateDownloading {
		return false
	}
	if t.haveCountOf(p)[f] == int32(s.cfg.ChunksPerFile) {
		return false
	}
	switch s.cfg.Scheme {
	case scheme.SimMFCD:
		for _, rf := range t.files[p] {
			if int(rf) == f {
				return true
			}
		}
		return false
	default: // CMFSD/MTSD: only the current file, and not during a pause
		if t.fileSeedLeft[p] > 0 {
			return false
		}
		cur := int(t.cursor[p])
		return cur < len(t.files[p]) && int(t.files[p][cur]) == f
	}
}

func refInterested(s *sim, q, p int32, virtualOnly bool) bool {
	t := s.t
	if t.state[q] != stateDownloading {
		return false
	}
	pc := t.haveCountOf(p)
	qc := t.haveCountOf(q)
	cpf := int32(s.cfg.ChunksPerFile)
	if s.cfg.Scheme == scheme.SimMFCD {
		for _, rf := range t.files[q] {
			f := int(rf)
			if qc[f] == cpf {
				continue
			}
			if virtualOnly && pc[f] != cpf {
				continue
			}
			if pc[f] > 0 {
				return true
			}
		}
		return false
	}
	// CMFSD/MTSD: q wants only its current file, and none mid-pause.
	if t.fileSeedLeft[q] > 0 {
		return false
	}
	cur := int(t.cursor[q])
	if cur >= len(t.files[q]) {
		return false
	}
	f := int(t.files[q][cur])
	if qc[f] == cpf {
		return false
	}
	if virtualOnly && pc[f] != cpf {
		return false
	}
	return pc[f] > 0
}

// checkMasks compares the masks of every live peer, and wants over
// every link an unchoke can scan, with the oracle on the same state.
func checkMasks(t *testing.T, s *sim) {
	t.Helper()
	bit := func(m []uint64, f int) bool { return m[f>>6]&(1<<(uint(f)&63)) != 0 }
	cpf := int32(s.cfg.ChunksPerFile)
	for _, q := range append([]int32{s.origin}, s.order...) {
		for f, n := range s.t.haveCountOf(q) {
			if got, want := bit(s.t.wantOf(q), f), refWantsFile(s, q, f); got != want {
				t.Fatalf("round %d: want[%d] file %d = %v, reference %v", s.round, q, f, got, want)
			}
			if bit(s.t.offerOf(q, false), f) != (n > 0) || bit(s.t.offerOf(q, true), f) != (n == cpf) {
				t.Fatalf("round %d: offer masks of %d wrong at file %d (holds %d of %d)", s.round, q, f, n, cpf)
			}
		}
		for _, p := range s.t.neighbors[q] { // ends with the origin
			for _, virtualOnly := range []bool{false, true} {
				if got, want := s.t.wants(q, s.t.offerOf(p, virtualOnly)), refInterested(s, q, p, virtualOnly); got != want {
					t.Fatalf("round %d: wants(%d, offer of %d, %v) = %v, reference %v", s.round, q, p, virtualOnly, got, want)
				}
			}
		}
	}
}

// checkConservation asserts the bookkeeping identities that hold between
// rounds, whatever the scheme or the faults injected.
func checkConservation(t *testing.T, s *sim) {
	t.Helper()
	tb := s.t
	cpf := s.cfg.ChunksPerFile
	// chunkCount is the column popcount of have over origin + live peers,
	// haveCount the per-file popcount of each row.
	column := make([]int32, len(s.chunkCount))
	for _, p := range append([]int32{s.origin}, s.order...) {
		perFile := make([]int32, s.cfg.K)
		for w, word := range tb.haveOf(p) {
			for ; word != 0; word &= word - 1 {
				c := w<<6 + bits.TrailingZeros64(word)
				column[c]++
				perFile[c/cpf]++
			}
		}
		for f, n := range tb.haveCountOf(p) {
			if n != perFile[f] {
				t.Fatalf("round %d: haveCount[%d][%d] = %d, bitset holds %d", s.round, p, f, n, perFile[f])
			}
		}
	}
	for c, n := range s.chunkCount {
		if n != column[c] {
			t.Fatalf("round %d: chunkCount[%d] = %d, %d peers hold it", s.round, c, n, column[c])
		}
	}
	// Links are symmetric between peers, one-way to the origin, and only
	// ever name live peers.
	live := map[int32]bool{}
	countedPresent := 0
	for _, p := range s.order {
		if live[p] {
			t.Fatalf("round %d: slot %d is live twice", s.round, p)
		}
		live[p] = true
		if tb.counted[p] {
			countedPresent++
		}
	}
	for _, p := range s.order {
		for _, q := range tb.neighbors[p] {
			if q == s.origin {
				continue
			}
			back := 0
			for _, r := range tb.neighbors[q] {
				if r == p {
					back++
				}
			}
			if !live[q] || back != 1 {
				t.Fatalf("round %d: link %d -> %d: target live %v, %d links back", s.round, p, q, live[q], back)
			}
		}
	}
	// Every slot is the origin, live or free; every counted arrival has
	// departed or is still here.
	if got := 1 + len(s.order) + len(tb.free); got != len(tb.id) {
		t.Fatalf("round %d: origin + %d live + %d free != %d slots", s.round, len(s.order), len(tb.free), len(tb.id))
	}
	if r := s.res; r.ArrivedUsers != r.CompletedUsers+r.AbortedUsers+countedPresent {
		t.Fatalf("round %d: %d arrived != %d completed + %d aborted + %d present",
			s.round, r.ArrivedUsers, r.CompletedUsers, r.AbortedUsers, countedPresent)
	}
}

// driveChecked is Run with checkMasks and checkConservation after every
// round. The masks step built describe the state before the round's
// transfers, so they are rebuilt, the way step does it, before the oracle
// reads the state after them.
func driveChecked(t *testing.T, cfg Config) *sim {
	t.Helper()
	s := newBenchSwarm(t, cfg)
	for s.round = 0; s.round < cfg.Horizon; s.round++ {
		s.step()
		for _, p := range s.order {
			s.setMasks(p)
		}
		checkMasks(t, s)
		checkConservation(t, s)
	}
	s.ledger.Finish(float64(cfg.Horizon - cfg.Warmup))
	return s
}

// TestMasksBeyond64Files runs the same checks where a file mask spans two
// words: K is not capped by the mask width.
func TestMasksBeyond64Files(t *testing.T) {
	for _, sc := range []scheme.SimScheme{scheme.SimMFCD, scheme.SimCMFSD} {
		cfg := cfgWith(func(c *Config) {
			c.K, c.ChunksPerFile, c.P = 70, 2, 0.3
			c.Scheme, c.Rho = sc, 0.3
			c.Horizon, c.Warmup = 200, 50
		})
		if s := driveChecked(t, cfg); s.res.CompletedUsers == 0 {
			t.Errorf("%v: nobody completed a 70-file torrent", sc)
		}
	}
}

// TestMasksAndConservationEveryRound drives every bit-golden
// configuration through driveChecked; at the end the digest must be the golden
// one (driving by hand is the same run) and Little's law must hold.
func TestMasksAndConservationEveryRound(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "bitgolden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range bitGoldenCases() {
		t.Run(name, func(t *testing.T) {
			s := driveChecked(t, cfg)
			if line := name + ": " + digestResult(s.res) + "\n"; !strings.Contains(string(golden), line) {
				t.Errorf("round-by-round drive left the golden run:\n%s", line)
			}
			// Little's law over the measured window: N̄ = λ·T̄, the mean
			// population against arrival rate × mean time online. Peers
			// straddling either edge of the window make it approximate.
			departed, sumOnline := 0, 0.0
			for _, c := range s.res.Classes {
				departed += c.OnlineTime.N()
				sumOnline += c.OnlineTime.Mean() * float64(c.OnlineTime.N())
			}
			n := s.res.MeanDownloaders + s.res.MeanSeeds
			lambda := s.corr.TotalUserRate()
			lt := lambda * sumOnline / float64(departed)
			if departed == 0 || math.Abs(n-lt) > 0.2*lt {
				t.Errorf("Little's law: mean population %.2f, λ·T̄ = %.3f × %.2f = %.2f", n, lambda, sumOnline/float64(departed), lt)
			}
		})
	}
}
