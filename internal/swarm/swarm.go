// Package swarm is a chunk-level, round-based BitTorrent simulator for the
// multi-file torrent scenario (Sections 3.4–3.5 of the paper): one torrent
// carries K files split into chunks; peers exchange chunks under tit-for-tat
// choking with an optimistic unchoke slot and rarest-first piece selection.
//
// It simulates three schemes at the mechanism level the fluid model
// abstracts away:
//
//   - MFCD: a peer wants every missing chunk of every file it requested and
//     picks rarest-first across all of them — exactly the "download the
//     chunks randomly" behaviour of real clients the paper describes.
//   - CMFSD: a peer downloads its files sequentially, wanting only chunks of
//     the current file, and once it has completed at least one file it acts
//     as a partial seed: a fraction ρ of its upload plays tit-for-tat in its
//     current subtorrent and 1−ρ altruistically serves chunks of its
//     finished files.
//   - MTSD: sequential with a dedicated per-file seeding pause — the
//     multi-torrent sequential behaviour embedded in one swarm.
//
// MTCD is covered by the flow-level simulator in internal/eventsim (in a
// shared swarm it is chunk-for-chunk identical to MFCD); chunk-level
// realism matters most inside a single multi-file torrent, where piece
// selection couples the subtorrents.
//
// Simplifications (documented in DESIGN.md): time advances in rechoke
// rounds; bandwidth is an integer number of chunks per round; each peer
// knows a bounded random neighbor set plus the origin seed; an origin seed
// (the publisher) holds all chunks permanently, which is how real torrents
// bootstrap.
//
// Peer state lives in a struct-of-arrays table (soa.go) so a steady-state
// round allocates nothing; the layout and the determinism contract the
// refactor preserves are documented in DESIGN.md. Users are accounted in a
// replica.Ledger, the same one internal/eventsim keeps: Result embeds the
// replica.Outcome it fills, in rounds.
package swarm

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"mfdl/internal/adapt"
	"mfdl/internal/correlation"
	"mfdl/internal/faults"
	"mfdl/internal/replica"
	"mfdl/internal/rng"
	"mfdl/internal/scheme"
	"mfdl/internal/trace"
)

// Config parameterizes one swarm simulation.
type Config struct {
	// K is the number of files in the torrent.
	K int
	// ChunksPerFile is the number of chunks per file.
	ChunksPerFile int
	// Lambda0 is the user visiting rate in users per round.
	Lambda0 float64
	// P is the file correlation.
	P float64
	// Scheme is MFCD, CMFSD or MTSD.
	Scheme scheme.SimScheme
	// Rho is the CMFSD partial-seed allocation ratio when Adapt is nil.
	Rho float64
	// Adapt, when non-nil, runs the Adapt controller per obedient peer.
	Adapt *adapt.Config
	// CheaterFraction is the fraction of CMFSD peers pinning ρ = 1.
	CheaterFraction float64
	// UploadPerRound is each peer's upload bandwidth in chunks per round.
	UploadPerRound int
	// TFTEfficiency is the paper's η: the probability that a chunk sent
	// over a tit-for-tat link between two downloaders is actually useful
	// (duplicate blocks, choking churn and request latency waste the
	// rest). Seed and virtual-seed uploads are altruistic and always
	// land, matching the fluid model's μηP·x vs μ(1−P)·x asymmetry.
	TFTEfficiency float64
	// Slots is the number of unchoke slots (including the optimistic one).
	Slots int
	// OptimisticEvery is the optimistic-unchoke rotation period in rounds.
	OptimisticEvery int
	// Gamma is the per-round seed departure probability parameter: seeds
	// stay for a geometric number of rounds with mean 1/Gamma.
	Gamma float64
	// MaxNeighbors bounds each peer's neighbor set (the origin seed is
	// always known).
	MaxNeighbors int
	// OriginUpload is the origin seed's upload bandwidth in chunks per
	// round; 0 means UploadPerRound.
	OriginUpload int
	// Horizon is the number of rounds to simulate.
	Horizon int
	// Warmup discards users arriving before this round from statistics.
	Warmup int
	// Seed drives the deterministic RNG.
	Seed uint64
	// SampleEvery, when positive, records downloader and seed population
	// series into Result.Trace every that many rounds.
	SampleEvery int
	// Faults injects deterministic churn: downloader aborts (rate per
	// downloading round), virtual-seed quits (CMFSD), slow-peer
	// throttling, and chunk-delivery loss. Fault draws come from
	// dedicated streams keyed by Faults.Seed mixed with Seed, so a
	// faults-off run is bit-identical to the pre-fault simulator.
	Faults faults.Config
}

// Validate checks the configuration. The float checks are written so
// that NaN fails them: a comparison with NaN is false either way round.
func (c Config) Validate() error {
	if c.K < 1 {
		return fmt.Errorf("swarm: K = %d must be >= 1", c.K)
	}
	if c.ChunksPerFile < 1 {
		return errors.New("swarm: ChunksPerFile must be >= 1")
	}
	if !(c.Lambda0 > 0) || math.IsInf(c.Lambda0, 1) {
		return fmt.Errorf("swarm: Lambda0 = %v must be positive and finite", c.Lambda0)
	}
	if !(c.P > 0 && c.P <= 1) {
		return fmt.Errorf("swarm: p = %v outside (0,1]", c.P)
	}
	switch c.Scheme {
	case scheme.SimMFCD, scheme.SimCMFSD, scheme.SimMTSD:
	default:
		// MTCD in particular: one swarm per torrent makes it flow-level
		// only (internal/eventsim); in a shared swarm it would be MFCD.
		return fmt.Errorf("swarm: unknown scheme %d", int(c.Scheme))
	}
	if !(c.Rho >= 0 && c.Rho <= 1) {
		return fmt.Errorf("swarm: ρ = %v outside [0,1]", c.Rho)
	}
	if c.Adapt != nil {
		if err := c.Adapt.Validate(); err != nil {
			return err
		}
	}
	if !(c.CheaterFraction >= 0 && c.CheaterFraction <= 1) {
		return fmt.Errorf("swarm: cheater fraction %v outside [0,1]", c.CheaterFraction)
	}
	if c.UploadPerRound < 1 {
		return errors.New("swarm: UploadPerRound must be >= 1")
	}
	if !(c.TFTEfficiency > 0 && c.TFTEfficiency <= 1) {
		return fmt.Errorf("swarm: η = %v outside (0,1]", c.TFTEfficiency)
	}
	if c.Slots < 2 {
		return errors.New("swarm: need at least 2 unchoke slots")
	}
	if c.OptimisticEvery < 1 {
		return errors.New("swarm: OptimisticEvery must be >= 1")
	}
	if !(c.Gamma > 0 && c.Gamma <= 1) {
		return fmt.Errorf("swarm: Gamma = %v outside (0,1]", c.Gamma)
	}
	if c.MaxNeighbors < 1 {
		return errors.New("swarm: MaxNeighbors must be >= 1")
	}
	if c.OriginUpload < 0 {
		return errors.New("swarm: OriginUpload must be non-negative")
	}
	if c.Horizon < 1 {
		return errors.New("swarm: Horizon must be >= 1")
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return errors.New("swarm: Warmup outside [0, Horizon)")
	}
	if c.SampleEvery < 0 {
		return errors.New("swarm: SampleEvery must be non-negative")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// DefaultConfig is a small but realistic operating point used by the
// examples and tests.
var DefaultConfig = Config{
	K:               5,
	ChunksPerFile:   16,
	Lambda0:         0.5,
	P:               0.9,
	Scheme:          scheme.SimCMFSD,
	Rho:             0,
	UploadPerRound:  4,
	TFTEfficiency:   0.5,
	Slots:           4,
	OptimisticEvery: 3,
	Gamma:           0.1,
	MaxNeighbors:    25,
	Horizon:         1500,
	Warmup:          300,
	Seed:            1,
}

// Result is the outcome of one swarm run: the user ledger's totals, in
// rounds, plus the chunk counters and the population trace.
type Result struct {
	Config Config
	// Outcome holds the user statistics. FinalRho counts the obedient
	// multi-file CMFSD peers that departed after warmup, completed or
	// aborted; cheaters are left out.
	replica.Outcome
	// ChunksTransferred counts every chunk delivery, the origin's included.
	ChunksTransferred int
	// ChunksLost counts scheduled deliveries dropped by injected loss.
	ChunksLost int
	// Trace holds "downloaders" and "seeds" series when
	// Config.SampleEvery > 0, else nil.
	Trace *trace.Recorder
}

// Sample flattens the run under the replica contract's standard keys,
// chunk transfers included. Time-like metrics are in rounds.
func (r *Result) Sample() replica.Sample {
	s := r.Outcome.Sample()
	s.Counts[replica.Chunks] = float64(r.ChunksTransferred)
	return s
}

type peerState uint8

const (
	stateDownloading peerState = iota
	stateSeeding
)

// setMasks rebuilds slot p's file masks from its current state. step calls
// it for every live peer after arrivals and before any transfer is
// planned; peer state is frozen until the planned transfers are applied,
// so the masks hold for the whole planning phase.
func (s *sim) setMasks(p int32) {
	t := s.t
	want, hasAny, hasAll := t.wantOf(p), t.offerOf(p, false), t.offerOf(p, true)
	clear(want)
	clear(hasAny)
	clear(hasAll)
	cpf := int32(s.cfg.ChunksPerFile)
	held := t.haveCountOf(p)
	for f, n := range held {
		if n > 0 {
			hasAny[f>>6] |= 1 << (uint(f) & 63)
		}
		if n == cpf {
			hasAll[f>>6] |= 1 << (uint(f) & 63)
		}
	}
	if t.state[p] != stateDownloading {
		return
	}
	// MFCD wants every unfinished requested file; CMFSD/MTSD only the
	// current one, and none during a per-file seeding pause.
	files := t.files[p]
	if s.cfg.Scheme != scheme.SimMFCD {
		cur := int(t.cursor[p])
		if t.fileSeedLeft[p] > 0 || cur >= len(files) {
			return
		}
		files = files[cur : cur+1]
	}
	for _, f := range files {
		if held[f] != cpf {
			want[f>>6] |= 1 << (uint(f) & 63)
		}
	}
}

// wants reports whether slot q could use any chunk from the files in
// offer, an uploader's offerOf mask, judged at file granularity: a cheap
// over-approximation, a useless unchoke just transfers nothing. A peer
// that is not downloading wants nothing, so callers need no state check
// of their own. It is the hottest predicate in the simulator — every
// unchoke scans it across the neighbor set — so the unchokes read the
// uploader's mask once and each neighbor costs one AND per mask word.
// offer is a mask, fileWords long, so its length is want's stride.
func (t *peerTable) wants(q int32, offer []uint64) bool {
	base := int(q) * len(offer)
	for i, o := range offer {
		if t.want[base+i]&o != 0 {
			return true
		}
	}
	return false
}

// fileFinished reports whether slot p holds all chunks of file f.
func (s *sim) fileFinished(p int32, f int) bool {
	return s.t.haveCountOf(p)[f] == int32(s.cfg.ChunksPerFile)
}

type sim struct {
	cfg     Config
	corr    *correlation.Model
	rng     *rng.Source
	plan    *faults.Plan // nil when faults are disabled
	lossSrc *rng.Source  // dedicated stream for delivery-loss draws
	t       *peerTable
	order   []int32 // live slots in arrival order (the former peer list)
	origin  int32
	nextID  int64
	round   int

	chunkCount []int32 // global availability per chunk (including origin)

	// Round scratch, reused every round so a steady-state step allocates
	// nothing (ownership rules in DESIGN.md).
	planned      []transfer
	schedTouched []int32 // slots whose sched bitset needs clearing
	rankBuf      []rankEntry
	targetsBuf   []int32
	poolBuf      []int32
	permBuf      []int

	res    *Result
	ledger replica.Ledger
}

// Run executes one swarm simulation.
func Run(cfg Config) (*Result, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	for s.round = 0; s.round < s.cfg.Horizon; s.round++ {
		s.step()
	}
	s.ledger.Finish(float64(s.cfg.Horizon - s.cfg.Warmup))
	return s.res, nil
}

// newSim validates cfg and returns a swarm holding only the origin seed,
// at round 0.
func newSim(cfg Config) (*sim, error) {
	if cfg.OriginUpload == 0 {
		cfg.OriginUpload = cfg.UploadPerRound
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corr, err := correlation.New(cfg.K, cfg.P, cfg.Lambda0)
	if err != nil {
		return nil, err
	}
	// Mixing the sim seed into the chaos seed decorrelates replicas while
	// keeping each (seed, chaos-seed) pair fully deterministic.
	plan, err := faults.NewPlan(cfg.Faults.Mixed(cfg.Seed))
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}
	s := &sim{
		cfg:    cfg,
		corr:   corr,
		rng:    rng.New(cfg.Seed),
		plan:   plan,
		res:    res,
		ledger: replica.NewLedger(&res.Outcome, cfg.K),
	}
	if plan != nil && plan.LossProb() > 0 {
		s.lossSrc = plan.LossStream(0)
	}
	s.setup()
	return s, nil
}

func (s *sim) totalChunks() int { return s.cfg.K * s.cfg.ChunksPerFile }

func (s *sim) setup() {
	n := s.totalChunks()
	s.chunkCount = make([]int32, n)
	s.t = newPeerTable(s.cfg.K, n)
	origin := s.t.alloc()
	s.t.id[origin] = 0
	s.t.state[origin] = stateSeeding
	s.t.seedLeft[origin] = math.MaxInt32
	hv := s.t.haveOf(origin)
	for c := 0; c < n; c++ {
		hv[c>>6] |= 1 << (uint(c) & 63)
		s.chunkCount[c]++
	}
	hc := s.t.haveCountOf(origin)
	for f := 0; f < s.cfg.K; f++ {
		hc[f] = int32(s.cfg.ChunksPerFile)
	}
	s.setMasks(origin) // the origin never changes: set once
	s.origin = origin
	s.nextID = 1
}

func (s *sim) arrive() {
	n := s.rng.Poisson(s.corr.TotalUserRate())
	for i := 0; i < n; i++ {
		s.addPeer()
	}
}

// addPeer admits one new downloader: class and file draws, fault plan
// lookups, and a bounded random symmetric neighbor sample. The RNG draw
// sequence is identical to the pre-SoA engine's (see DESIGN.md).
func (s *sim) addPeer() {
	t := s.t
	class := s.corr.Class(s.rng.Float64())
	s.permBuf = s.rng.PermInto(s.permBuf, s.cfg.K)
	slot := t.alloc()
	t.id[slot] = s.nextID
	s.nextID++
	t.class[slot] = int32(class)
	fl := t.files[slot]
	for _, f := range s.permBuf[:class] {
		fl = append(fl, int32(f))
	}
	t.files[slot] = fl
	t.arrival[slot] = s.round
	t.counted[slot] = s.round >= s.cfg.Warmup
	t.rho[slot] = s.cfg.Rho
	if s.plan != nil {
		// Per-peer draws keyed by id: the main RNG sees exactly the
		// faults-off sequence.
		id := uint64(t.id[slot])
		if a := s.plan.AbortAfter(id); a < math.MaxInt32 {
			t.abortLeft[slot] = 1 + int(a)
		}
		if s.cfg.Scheme == scheme.SimCMFSD && class > 1 {
			if q := s.plan.SeedQuitAfter(id); q < math.MaxInt32 {
				t.vsQuitLeft[slot] = 1 + int(q)
			}
		}
		if f := s.plan.UploadFactor(id); f < 1 {
			t.uploadFactor[slot] = f
		}
	}
	if s.cfg.Scheme == scheme.SimCMFSD {
		if s.rng.Bernoulli(s.cfg.CheaterFraction) {
			t.cheater[slot] = true
			t.rho[slot] = 1
		} else if s.cfg.Adapt != nil {
			if ctrl, err := adapt.NewController(*s.cfg.Adapt); err == nil {
				t.ctrl[slot] = ctrl
				t.rho[slot] = ctrl.Rho()
			}
		}
	}
	// Neighbor set: a bounded random sample of current peers, plus the
	// origin seed. Links are symmetric.
	cand := len(s.order)
	want := s.cfg.MaxNeighbors
	if want > cand {
		want = cand
	}
	s.permBuf = s.rng.PermInto(s.permBuf, cand)
	for _, idx := range s.permBuf[:want] {
		q := s.order[idx]
		t.neighbors[slot] = append(t.neighbors[slot], q)
		t.neighbors[q] = append(t.neighbors[q], slot)
	}
	t.neighbors[slot] = append(t.neighbors[slot], s.origin)
	if t.counted[slot] {
		s.ledger.Arrive()
	}
	s.order = append(s.order, slot)
}

// uploadBudgets returns the TFT and virtual-seed chunk budgets of slot p
// this round.
func (s *sim) uploadBudgets(p int32) (tft, virtual int) {
	t := s.t
	u := s.cfg.UploadPerRound
	if p == s.origin {
		return 0, s.cfg.OriginUpload
	}
	if f := t.uploadFactor[p]; f > 0 && f < 1 {
		// Injected slow-peer throttling.
		u = int(math.Round(f * float64(u)))
	}
	if t.state[p] == stateSeeding {
		return 0, u
	}
	if s.cfg.Scheme == scheme.SimMTSD && t.fileSeedLeft[p] > 0 {
		// Per-file seeding pause: the whole upload serves finished files.
		return 0, u
	}
	if s.cfg.Scheme == scheme.SimCMFSD && t.class[p] > 1 && t.finished[p] >= 1 {
		if t.vsQuit[p] {
			// An injected virtual-seed quit: the peer turns selfish and
			// spends its whole upload on tit-for-tat.
			return u, 0
		}
		v := int(math.Round((1 - t.rho[p]) * float64(u)))
		return u - v, v
	}
	return u, 0
}

// transfer is one scheduled chunk delivery, applied at the end of the round.
type transfer struct {
	to      int32
	from    int32
	chunk   int32
	virtual bool
}

// step simulates one rechoke round.
func (s *sim) step() {
	s.arrive()
	t := s.t

	// Record populations at the start of the round.
	if s.round >= s.cfg.Warmup || (s.cfg.SampleEvery > 0 && s.round%s.cfg.SampleEvery == 0) {
		dl, sd := 0, 0
		for _, p := range s.order {
			if t.state[p] == stateDownloading {
				dl++
			} else {
				sd++
			}
		}
		if s.round >= s.cfg.Warmup {
			s.ledger.Observe(float64(s.round-s.cfg.Warmup), dl, sd)
		}
		if s.cfg.SampleEvery > 0 && s.round%s.cfg.SampleEvery == 0 {
			if s.res.Trace == nil {
				s.res.Trace = trace.NewRecorder()
			}
			_ = s.res.Trace.Record("downloaders", float64(s.round), float64(dl))
			_ = s.res.Trace.Record("seeds", float64(s.round), float64(sd))
		}
	}

	for _, p := range s.order {
		s.setMasks(p)
	}

	// Plan all transfers with the pre-round state, then apply. The origin
	// uploads first, then every live peer in arrival order — the same
	// uploader order the former append([]*peer{origin}, peers...) built,
	// without rebuilding a slice.
	s.planned = s.planned[:0]
	for i := -1; i < len(s.order); i++ {
		p := s.origin
		if i >= 0 {
			p = s.order[i]
		}
		tftBudget, virtBudget := s.uploadBudgets(p)
		if tftBudget > 0 {
			targets := s.tftUnchoke(p)
			s.serve(p, targets, tftBudget, false, s.cfg.TFTEfficiency)
		}
		if virtBudget > 0 {
			isVirtual := p != s.origin && t.state[p] == stateDownloading
			targets := s.altruisticUnchoke(p, isVirtual)
			s.serve(p, targets, virtBudget, isVirtual, 1)
		}
	}
	for _, tr := range s.planned {
		if t.hasChunk(tr.to, tr.chunk) {
			continue
		}
		if s.lossSrc != nil && s.lossSrc.Bernoulli(s.plan.LossProb()) {
			// Injected delivery loss: the chunk is sent but never lands.
			s.res.ChunksLost++
			continue
		}
		t.setChunk(tr.to, tr.chunk)
		t.haveCountOf(tr.to)[int(tr.chunk)/s.cfg.ChunksPerFile]++
		s.chunkCount[tr.chunk]++
		t.recvNowAdd(tr.to, t.id[tr.from])
		s.res.ChunksTransferred++
		if tr.virtual {
			t.virtUp[tr.from]++
			t.virtDown[tr.to]++
		}
	}
	for _, p := range s.schedTouched {
		t.clearSched(p)
	}
	s.schedTouched = s.schedTouched[:0]

	// Post-transfer bookkeeping: completions, seeding transitions,
	// departures, TFT history rotation, Adapt. The live list is filtered
	// in place; departed slots return to the table's free list.
	w := 0
	for _, p := range s.order {
		t.rotateRecv(p)
		if t.state[p] == stateDownloading {
			if t.fileSeedLeft[p] > 0 {
				// MTSD per-file seeding pause.
				t.fileSeedLeft[p]--
				if t.fileSeedLeft[p] == 0 {
					t.cursor[p]++
				}
			} else {
				t.downloadRounds[p]++
				s.checkCompletion(p)
			}
		}
		if t.state[p] == stateDownloading && s.plan != nil {
			// Injected churn ticks on downloading rounds only, mirroring
			// the fluid θ·x clock. The virtual-seed-quit clock ticks while
			// the peer actually virtual-seeds.
			if !t.vsQuit[p] && t.vsQuitLeft[p] > 0 && t.class[p] > 1 && t.finished[p] >= 1 {
				t.vsQuitLeft[p]--
				if t.vsQuitLeft[p] == 0 {
					t.vsQuit[p] = true
					s.res.SeedQuits++
				}
			}
			if t.abortLeft[p] > 0 {
				t.abortLeft[p]--
				if t.abortLeft[p] == 0 {
					t.aborted[p] = true
					s.depart(p)
					t.freeSlot(p)
					continue
				}
			}
		}
		if t.state[p] == stateSeeding {
			t.seedLeft[p]--
			if t.seedLeft[p] <= 0 {
				s.depart(p)
				t.freeSlot(p)
				continue
			}
		}
		if t.ctrl[p] != nil && t.state[p] == stateDownloading {
			t.adaptAge[p]++
			if float64(t.adaptAge[p]) >= t.ctrl[p].Period() {
				if t.finished[p] >= 1 && t.class[p] > 1 {
					delta := float64(t.virtUp[p]-t.virtDown[p]) / float64(t.adaptAge[p])
					t.rho[p] = t.ctrl[p].Observe(delta)
				}
				t.virtUp[p], t.virtDown[p], t.adaptAge[p] = 0, 0, 0
			}
		}
		s.order[w] = p
		w++
	}
	s.order = s.order[:w]
}

// checkCompletion advances a downloader whose current goal is met.
func (s *sim) checkCompletion(p int32) {
	t := s.t
	switch s.cfg.Scheme {
	case scheme.SimMFCD:
		for _, f := range t.files[p] {
			if !s.fileFinished(p, int(f)) {
				return
			}
		}
		t.finished[p] = int32(len(t.files[p]))
		s.startSeeding(p)
	case scheme.SimMTSD:
		if t.fileSeedLeft[p] > 0 {
			return // mid-pause; cursor advances when the pause ends
		}
		cur := int(t.cursor[p])
		if cur >= len(t.files[p]) || !s.fileFinished(p, int(t.files[p][cur])) {
			return
		}
		t.finished[p]++
		if cur+1 >= len(t.files[p]) {
			s.startSeeding(p)
			return
		}
		t.fileSeedLeft[p] = 1 + int(s.rng.Exp(s.cfg.Gamma))
	default: // CMFSD
		for int(t.cursor[p]) < len(t.files[p]) && s.fileFinished(p, int(t.files[p][t.cursor[p]])) {
			t.cursor[p]++
			t.finished[p]++
		}
		if int(t.cursor[p]) >= len(t.files[p]) {
			s.startSeeding(p)
		}
	}
}

func (s *sim) startSeeding(p int32) {
	s.t.state[p] = stateSeeding
	// Geometric residence with mean 1/γ rounds.
	s.t.seedLeft[p] = 1 + int(s.rng.Exp(s.cfg.Gamma))
}

// depart removes a peer from the swarm bookkeeping (the caller drops it
// from the live list and frees its slot) and records its statistics.
func (s *sim) depart(dead int32) {
	t := s.t
	hv := t.haveOf(dead)
	for w, word := range hv {
		for word != 0 {
			c := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			s.chunkCount[c]--
		}
	}
	// Remove the departed peer from its neighbors' lists eagerly, to keep
	// neighbor scans cheap.
	for _, q := range t.neighbors[dead] {
		nb := t.neighbors[q]
		for i, r := range nb {
			if r == dead {
				nb[i] = nb[len(nb)-1]
				t.neighbors[q] = nb[:len(nb)-1]
				break
			}
		}
	}
	if !t.counted[dead] {
		return
	}
	// MFCD starts every file at arrival; an aborted sequential downloader
	// never started the files past its cursor.
	files := int(t.class[dead])
	if t.aborted[dead] && s.cfg.Scheme != scheme.SimMFCD {
		files = min(int(t.cursor[dead])+1, files)
	}
	s.ledger.Depart(replica.Departure{
		Class: int(t.class[dead]), BwClass: -1,
		Online: float64(s.round - t.arrival[dead] + 1), Download: float64(t.downloadRounds[dead]),
		Files: files, Aborted: t.aborted[dead],
		// Only obedient multi-file CMFSD peers' ρ counts: cheaters are left out.
		Rho: t.rho[dead], CountRho: s.cfg.Scheme == scheme.SimCMFSD && t.class[dead] > 1 && !t.cheater[dead],
	})
}

// tftUnchoke returns the peers p unchokes with its tit-for-tat budget: the
// top Slots−1 contributors among interested neighbors plus one optimistic.
// The returned slice is round scratch, valid until the next unchoke call.
func (s *sim) tftUnchoke(p int32) []int32 {
	t := s.t
	e := s.rankBuf[:0]
	offer, recv := t.offerOf(p, false), t.recvLast[p]
	for _, q := range t.neighbors[p] {
		if q != p && t.wants(q, offer) {
			id := t.id[q]
			e = append(e, rankEntry{slot: q, key: recvCount(recv, id), id: id})
		}
	}
	s.rankBuf = e
	if len(e) == 0 {
		return nil
	}
	n := selectTop(e, s.cfg.Slots-1)
	s.targetsBuf = s.targetsBuf[:0]
	for _, c := range e[:n] {
		s.targetsBuf = append(s.targetsBuf, c.slot)
	}
	// Optimistic slot: rotate a random interested peer not already chosen.
	// The target is remembered as (slot, generation); a generation mismatch
	// means the peer departed — exactly when the former *peer pointer
	// stopped appearing in any neighbor list.
	t.optAge[p]++
	if t.optSlot[p] == noSlot || int(t.optAge[p]) >= s.cfg.OptimisticEvery || !s.stillInterested(p, t.optSlot[p], t.optGen[p]) {
		t.optSlot[p] = noSlot
		t.optAge[p] = 0
		if pool := e[n:]; len(pool) > 0 {
			q := nth(pool, s.rng.Intn(len(pool))).slot
			t.optSlot[p] = q
			t.optGen[p] = t.gen[q]
		}
	}
	if t.optSlot[p] != noSlot {
		s.targetsBuf = append(s.targetsBuf, t.optSlot[p])
	}
	return s.targetsBuf
}

// stillInterested reports whether the remembered optimistic target (slot q
// at generation qGen) is still a downloading neighbor of p that wants
// something p has.
func (s *sim) stillInterested(p, q int32, qGen uint32) bool {
	t := s.t
	if t.gen[q] != qGen {
		return false // departed (and possibly recycled)
	}
	for _, r := range t.neighbors[p] {
		if r == q {
			return t.wants(q, t.offerOf(p, false))
		}
	}
	return false
}

// altruisticUnchoke picks random interested peers for a seed (or, with
// virtualOnly, for a partial seed's finished files). The returned slice is
// round scratch, valid until the next unchoke call.
func (s *sim) altruisticUnchoke(p int32, virtualOnly bool) []int32 {
	t := s.t
	s.poolBuf = s.poolBuf[:0]
	neighbors := t.neighbors[p]
	if p == s.origin {
		neighbors = s.order
	}
	offer := t.offerOf(p, virtualOnly)
	for _, q := range neighbors {
		if q != p && t.wants(q, offer) {
			s.poolBuf = append(s.poolBuf, q)
		}
	}
	if len(s.poolBuf) == 0 {
		return nil
	}
	n := s.cfg.Slots
	if n > len(s.poolBuf) {
		n = len(s.poolBuf)
	}
	// The whole pool is shuffled, draw-for-draw what rng.Shuffle does, for
	// its first n: the origin's pool is the swarm, so this is one draw per
	// live downloader a round.
	rng.ShuffleSlice(s.rng, s.poolBuf)
	return s.poolBuf[:n]
}

// serve splits budget chunks across targets and schedules rarest-first
// picks for each. Each chunk lands with the given efficiency; misses model
// the sharing loss η of downloader-to-downloader exchange and consume the
// slot's budget without delivering.
func (s *sim) serve(p int32, targets []int32, budget int, virtual bool, efficiency float64) {
	if len(targets) == 0 || budget <= 0 {
		return
	}
	t := s.t
	base := budget / len(targets)
	extra := budget % len(targets)
	for i, q := range targets {
		n := base
		if i < extra {
			n++
		}
		for j := 0; j < n; j++ {
			if efficiency < 1 && !s.rng.Bernoulli(efficiency) {
				continue
			}
			c := s.pickChunk(q, p, virtual)
			if c < 0 {
				break
			}
			if !t.schedDirty[q] {
				t.schedDirty[q] = true
				s.schedTouched = append(s.schedTouched, q)
			}
			t.setSched(q, c)
			s.planned = append(s.planned, transfer{to: q, from: p, chunk: c, virtual: virtual})
		}
	}
}

// pickChunk selects the rarest chunk q wants that p can offer (restricted
// to p's finished files when virtual), excluding chunks already scheduled
// to q this round. Candidates are scanned in ascending chunk order with a
// strict < on availability, so the first minimum wins — the same pick the
// former boolean-slice scan made.
func (s *sim) pickChunk(q, p int32, virtual bool) int32 {
	t := s.t
	counts := s.chunkCount
	best := int32(-1)
	bestCount := int32(math.MaxInt32)
	cpf := int32(s.cfg.ChunksPerFile)
	pHave := t.haveOf(p)
	qHave := t.haveOf(q)
	qSched := t.schedOf(q)
	offer := t.offerOf(p, virtual)
	for i, wanted := range t.wantOf(q) {
		for files := wanted & offer[i]; files != 0; files &= files - 1 {
			lo := int32(i<<6+bits.TrailingZeros64(files)) * cpf
			hi := lo + cpf
			for w := int(lo) >> 6; w <= int(hi-1)>>6; w++ {
				cand := pHave[w] &^ qHave[w] &^ qSched[w]
				base := int32(w << 6)
				if base < lo {
					cand &^= 1<<uint(lo-base) - 1
				}
				if base+64 > hi {
					cand &= 1<<uint(hi-base) - 1
				}
				for cand != 0 {
					c := base + int32(bits.TrailingZeros64(cand))
					cand &= cand - 1
					if n := counts[c]; n < bestCount {
						bestCount, best = n, c
					}
				}
			}
		}
	}
	return best
}
