// Package eventsim is a flow-level, event-driven simulator of the
// server–torrent system of Section 3.1: users arrive as a Poisson process,
// request a random subset of the K files according to the binomial
// correlation model, and download them under one of the four schemes the
// paper analyzes (MTCD, MTSD, MFCD, CMFSD). Transfers are fluid: between
// events every downloading peer progresses at a rate assembled from the
// same two service sources the fluid models use — tit-for-tat exchange
// (η times the peer's own upload allocation, assumption 1 of Section 2) and
// seed-like capacity shared proportionally to download bandwidth
// (assumption 2).
//
// The simulator exists to (a) validate the shape of the fluid-model
// predictions with an independent mechanism (experiment E9 in DESIGN.md)
// and (b) evaluate the Adapt controller and cheating peers (E8), which are
// per-peer and dynamic and therefore outside the fluid model.
package eventsim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mfdl/internal/adapt"
	"mfdl/internal/correlation"
	"mfdl/internal/faults"
	"mfdl/internal/fluid"
	"mfdl/internal/rng"
	"mfdl/internal/scheme"
	"mfdl/internal/stats"
	"mfdl/internal/trace"
)

// concurrent reports whether legs run simultaneously with split bandwidth.
func concurrent(s scheme.SimScheme) bool { return s == scheme.SimMTCD || s == scheme.SimMFCD }

// Config parameterizes one simulation run.
type Config struct {
	fluid.Params
	// K is the number of files (torrents or subtorrents).
	K int
	// Lambda0 is the web-server visiting rate λ₀.
	Lambda0 float64
	// P is the file correlation.
	P float64
	// Scheme is the downloading scheme.
	Scheme scheme.SimScheme
	// Rho is the fixed CMFSD allocation ratio when Adapt is nil.
	Rho float64
	// Adapt, when non-nil, runs the Adapt controller on every obedient
	// CMFSD peer (overrides Rho).
	Adapt *adapt.Config
	// CheaterFraction is the fraction of CMFSD peers that pin ρ = 1 and
	// never virtual-seed (Section 4.3's selfish peers).
	CheaterFraction float64
	// Horizon is the simulated duration.
	Horizon float64
	// Warmup discards users arriving before this time from the
	// statistics (and starts the population averages there).
	Warmup float64
	// Seed drives the deterministic RNG.
	Seed uint64
	// FlashCrowd creates this many users at t = 0 (in addition to the
	// Poisson arrivals) for transient studies.
	FlashCrowd int
	// SampleEvery, when positive, records the downloader and seed
	// populations into Result.Trace at this interval.
	SampleEvery float64
	// Bandwidth optionally splits arrivals into heterogeneous upload
	// classes (Section 2's C_i(μ_i, c_i) framework); empty means every
	// peer uploads at Params.Mu with equal download weight.
	Bandwidth []BandwidthClass
	// Faults injects deterministic churn: downloader aborts at rate
	// AbortRate (the fluid θ), virtual-seed quits at SeedQuitRate
	// (CMFSD), and slow-peer throttling. Fault draws come from dedicated
	// per-peer streams keyed by Faults.Seed mixed with Seed, so the main
	// RNG consumes exactly the same values as a faults-off run: disabling
	// faults reproduces the pre-fault trajectories bit for bit.
	Faults faults.Config
}

// BandwidthClass is one heterogeneous peer class.
type BandwidthClass struct {
	// Name labels the class in results.
	Name string
	// Mu is the class upload bandwidth (replaces Params.Mu).
	Mu float64
	// Weight is the download-capacity weight c_i used to split the
	// seeds' altruistic service (assumption 2).
	Weight float64
	// Fraction is the share of arrivals in this class; fractions must
	// sum to 1.
	Fraction float64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.K < 1 {
		return fmt.Errorf("eventsim: K = %d must be >= 1", c.K)
	}
	if c.Lambda0 <= 0 {
		return errors.New("eventsim: λ₀ must be positive")
	}
	if c.P <= 0 || c.P > 1 {
		return fmt.Errorf("eventsim: p = %v outside (0,1]", c.P)
	}
	if c.Scheme < scheme.SimMTCD || c.Scheme > scheme.SimCMFSD {
		return fmt.Errorf("eventsim: unknown scheme %d", int(c.Scheme))
	}
	if c.Rho < 0 || c.Rho > 1 {
		return fmt.Errorf("eventsim: ρ = %v outside [0,1]", c.Rho)
	}
	if c.Adapt != nil {
		if err := c.Adapt.Validate(); err != nil {
			return err
		}
	}
	if c.CheaterFraction < 0 || c.CheaterFraction > 1 {
		return fmt.Errorf("eventsim: cheater fraction %v outside [0,1]", c.CheaterFraction)
	}
	if c.Horizon <= 0 {
		return errors.New("eventsim: horizon must be positive")
	}
	if c.Warmup < 0 || c.Warmup >= c.Horizon {
		return fmt.Errorf("eventsim: warmup %v outside [0, horizon)", c.Warmup)
	}
	if c.FlashCrowd < 0 {
		return errors.New("eventsim: FlashCrowd must be non-negative")
	}
	if c.SampleEvery < 0 {
		return errors.New("eventsim: SampleEvery must be non-negative")
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if len(c.Bandwidth) > 0 {
		sum := 0.0
		for _, b := range c.Bandwidth {
			if b.Mu <= 0 || b.Weight <= 0 {
				return fmt.Errorf("eventsim: bandwidth class %q needs positive μ and weight", b.Name)
			}
			if b.Fraction < 0 {
				return fmt.Errorf("eventsim: bandwidth class %q has negative fraction", b.Name)
			}
			sum += b.Fraction
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("eventsim: bandwidth fractions sum to %v, want 1", sum)
		}
	}
	return nil
}

// ClassStats aggregates departed users of one class. With fault injection
// the time summaries include aborted users' partial times (Little's law
// with churn); Completed counts only full completions.
type ClassStats struct {
	Class        int
	Completed    int
	OnlineTime   stats.Summary
	DownloadTime stats.Summary
}

// BandwidthStats aggregates completed users of one bandwidth class.
type BandwidthStats struct {
	Name         string
	Completed    int
	OnlineTime   stats.Summary
	DownloadTime stats.Summary
}

// Result is the outcome of one run.
type Result struct {
	Config Config
	// Classes holds per-class statistics for classes 1..K.
	Classes []ClassStats
	// ArrivedUsers and CompletedUsers count users arriving after warmup
	// (completed = departed before the horizon).
	ArrivedUsers, CompletedUsers int
	// AbortedUsers counts counted users removed by an injected abort.
	// Aborted users contribute their (partial) online and download times
	// to the averages — Little's law with churn charges aborters' time in
	// system, exactly as the fluid θ·x term does — but never to Completed.
	AbortedUsers int
	// SeedQuits counts injected virtual-seed departures (CMFSD).
	SeedQuits int
	// AvgOnlinePerFile is Σ online time / Σ files requested over counted
	// completed users (the paper's metric).
	AvgOnlinePerFile float64
	// AvgDownloadPerFile is the same aggregation over download times.
	AvgDownloadPerFile float64
	// MeanDownloaders and MeanSeeds are time-averaged leg populations
	// after warmup.
	MeanDownloaders, MeanSeeds float64
	// FinalRho summarizes the ρ of CMFSD peers alive or completed after
	// warmup (only meaningful with Adapt or cheaters).
	FinalRho stats.Summary
	// Trace holds the sampled "downloaders" and "seeds" population
	// series when Config.SampleEvery > 0, else nil.
	Trace *trace.Recorder
	// Bandwidth holds per-bandwidth-class statistics (parallel to
	// Config.Bandwidth; empty for homogeneous runs).
	Bandwidth []BandwidthStats
}

// legState is the lifecycle of one requested file.
type legState uint8

const (
	legWaiting legState = iota
	legDownloading
	legSeeding // per-torrent seeding (MTCD/MFCD/MTSD)
	legDone
)

type leg struct {
	torrent int
	state   legState
	// heapIdx is the heap slot of the leg's pending seed timer, -1 when
	// none; a CMFSD peer's real-seed timer uses legs[0]'s slot.
	heapIdx      int32
	remaining    float64
	rate         float64
	seedDepartAt float64
}

type peer struct {
	id        uint64
	class     int
	arrivalAt float64
	legs      []leg
	cursor    int // current leg for sequential schemes
	finished  int
	rho       float64
	ctrl      *adapt.Controller
	cheater   bool
	counted   bool // arrived after warmup: include in statistics

	// Fault state: remaining downloading time until an injected abort,
	// remaining virtual-seeding time until an injected quit (both +Inf
	// when faults are off), and the outcome flags.
	abortBudget  float64
	vsQuitBudget float64
	vsQuit       bool
	aborted      bool

	// Bandwidth class (index into Config.Bandwidth, -1 when homogeneous).
	bwClass int
	mu      float64 // upload bandwidth
	weight  float64 // download-capacity weight for seed-service split

	lastCompletionAt float64
	dlAccum          float64
	virtUp, virtDown float64
	virtDownRate     float64 // current virtual-seed receive rate
	seeding          bool    // CMFSD real-seed phase
	seedDepartAt     float64

	// pos is the peer's index in s.peers, maintained across swap-removes.
	pos int32
	// group indexes the peer's (class, bandwidth class) column of
	// sim.share; epoch is the last advance whose progress the peer has
	// integrated (see integrate).
	group int
	epoch uint64
}

// downloadingLeg returns the downloading leg of a sequential-scheme peer
// (MTSD, CMFSD), or -1: only legs[cursor] can be downloading.
func (p *peer) downloadingLeg() int {
	if p.seeding || p.legs[p.cursor].state != legDownloading {
		return -1
	}
	return p.cursor
}

// active returns the index range of the legs that can be downloading or
// seeding: every leg under the concurrent schemes, only legs[cursor]
// under the sequential ones (the legs before it are done, those after it
// waiting).
func (s *sim) active(p *peer) (lo, hi int) {
	if concurrent(s.cfg.Scheme) {
		return 0, len(p.legs)
	}
	return p.cursor, p.cursor + 1
}

// Run executes the simulation and aggregates the result.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	corr, err := correlation.New(cfg.K, cfg.P, cfg.Lambda0)
	if err != nil {
		return nil, err
	}
	// The fault plan mixes the sim seed into the chaos seed so replicas
	// (distinct sim seeds) draw decorrelated faults while each (seed,
	// chaos-seed) pair stays fully deterministic.
	plan, err := faults.NewPlan(cfg.Faults.Mixed(cfg.Seed), nil)
	if err != nil {
		return nil, err
	}
	s := &sim{
		cfg:  cfg,
		corr: corr,
		rng:  rng.New(cfg.Seed),
		plan: plan,
		res: &Result{
			Config:  cfg,
			Classes: make([]ClassStats, cfg.K),
		},
	}
	for i := range s.res.Classes {
		s.res.Classes[i].Class = i + 1
	}
	for _, b := range cfg.Bandwidth {
		s.res.Bandwidth = append(s.res.Bandwidth, BandwidthStats{Name: b.Name})
	}
	s.run()
	s.finish()
	return s.res, nil
}

type sim struct {
	cfg    Config
	corr   *correlation.Model
	rng    *rng.Source
	plan   *faults.Plan // nil when faults are disabled
	nextID uint64
	peers  []*peer
	res    *Result

	now       float64
	totalRate float64
	classCDF  []float64
	dlPop     stats.TimeWeighted
	seedPop   stats.TimeWeighted
	perm      []int // fileSubset's permutation buffer

	sumOnline, sumDownload float64
	sumFiles               int

	// Event-loop state (owned by init/stepOnce).
	lambdaTot   float64
	nextArrival float64
	nextAdapt   float64
	nextSample  float64

	// timers holds the pending seed-departure events (the only absolute,
	// rate-independent times); everything rate-coupled is recomputed per
	// event in stepOnce's rate pass.
	timers timerHeap
	// dlCount / seedCount incrementally track the leg populations the
	// former populations() scan counted (integers, so incremental
	// maintenance is exact).
	dlCount, seedCount int

	// Deferred progress integration: advance bumps epoch and records its
	// dt; each peer applies that dt when it is next visited (integrate).
	epoch uint64
	dt    float64

	// Per-torrent state of the multi-torrent schemes, kept between events
	// (nil under CMFSD, which pools its seed service):
	//   - seedCap[t], weightSum[t]: torrent t's seed capacity and
	//     downloading weight, re-summed only while t is dirty (touch);
	//   - groupWeight[g]: the download-capacity weight of one downloading
	//     leg of group g for splitting seed service (assumption 2), the
	//     bandwidth class's weight, divided across the legs under the
	//     concurrent schemes, where a group is also a user class;
	//   - share[t*len(groupWeight)+g]: groupWeight[g]/weightSum[t]·seedCap[t];
	//   - legOf[pos*K+t]: the leg in torrent t of the peer at position
	//     pos, -1 for none (concurrent schemes only: a sequential peer's
	//     one active leg is legs[cursor]).
	seedCap, weightSum, groupWeight, share []float64
	dirty                                  []bool
	dirtyList                              []int
	legOf                                  []int32
}

// classSample draws a user class ∝ λ_i.
func (s *sim) classSample() int {
	if s.classCDF == nil {
		s.classCDF = make([]float64, s.cfg.K)
		acc := 0.0
		for i := 1; i <= s.cfg.K; i++ {
			acc += s.corr.UserRate(i)
			s.classCDF[i-1] = acc
		}
		s.totalRate = acc
	}
	u := s.rng.Float64() * s.totalRate
	for i, c := range s.classCDF {
		if u <= c {
			return i + 1
		}
	}
	return s.cfg.K
}

// fileSubset draws a uniform random subset of size n of the K files. The
// result aliases a buffer the next call overwrites.
func (s *sim) fileSubset(n int) []int {
	s.perm = s.rng.PermInto(s.perm, s.cfg.K)
	return s.perm[:n]
}

// newPeer materializes an arriving user.
func (s *sim) newPeer() *peer {
	class := s.classSample()
	files := s.fileSubset(class)
	p := &peer{
		id:           s.nextID,
		class:        class,
		arrivalAt:    s.now,
		legs:         make([]leg, class),
		counted:      s.now >= s.cfg.Warmup,
		rho:          s.cfg.Rho,
		bwClass:      -1,
		mu:           s.cfg.Mu,
		weight:       1,
		abortBudget:  math.Inf(1),
		vsQuitBudget: math.Inf(1),
		epoch:        s.epoch,
	}
	s.nextID++
	if len(s.cfg.Bandwidth) > 0 {
		u := s.rng.Float64()
		acc := 0.0
		for i, b := range s.cfg.Bandwidth {
			acc += b.Fraction
			if u <= acc || i == len(s.cfg.Bandwidth)-1 {
				p.bwClass = i
				p.mu = b.Mu
				p.weight = b.Weight
				break
			}
		}
	}
	p.group = s.groupOf(class, p.bwClass)
	if s.plan != nil {
		// All fault draws come from per-peer streams keyed by id, so the
		// main RNG above is untouched relative to a faults-off run.
		p.abortBudget = s.plan.AbortAfter(p.id)
		if s.cfg.Scheme == scheme.SimCMFSD && p.class > 1 {
			p.vsQuitBudget = s.plan.SeedQuitAfter(p.id)
		}
		if f := s.plan.UploadFactor(p.id); f < 1 {
			p.mu *= f
			s.plan.NoteSlowPeer()
		}
	}
	for i, f := range files {
		p.legs[i] = leg{torrent: f, state: legWaiting, heapIdx: -1, remaining: 1}
	}
	if concurrent(s.cfg.Scheme) {
		for i := range p.legs {
			p.legs[i].state = legDownloading
		}
	} else {
		p.legs[0].state = legDownloading
	}
	if s.cfg.Scheme == scheme.SimCMFSD {
		if s.rng.Bernoulli(s.cfg.CheaterFraction) {
			p.cheater = true
			p.rho = 1
		} else if s.cfg.Adapt != nil {
			ctrl, err := adapt.NewController(*s.cfg.Adapt)
			if err == nil {
				p.ctrl = ctrl
				p.rho = ctrl.Rho()
			}
		}
	}
	return p
}

// admit adds a materialized peer to the swarm, maintaining the peer's
// position index and the incremental leg-population counters.
func (s *sim) admit(p *peer) {
	if p.counted {
		s.res.ArrivedUsers++
	}
	p.pos = int32(len(s.peers))
	s.peers = append(s.peers, p)
	if s.legOf != nil {
		k := s.cfg.K
		s.legOf = slices.Grow(s.legOf, k)[:len(s.legOf)+k]
		row := s.legOf[len(s.legOf)-k:]
		for t := range row {
			row[t] = -1
		}
		for i := range p.legs {
			row[p.legs[i].torrent] = int32(i)
		}
	}
	if concurrent(s.cfg.Scheme) {
		s.dlCount += p.class
	} else {
		s.dlCount++
	}
	s.touchPeer(p)
}

// groupOf returns the share group of a user class and bandwidth class
// (bwClass -1 in a homogeneous run): the bandwidth class, split by user
// class under the concurrent schemes, whose legs weigh weight/class.
func (s *sim) groupOf(class, bwClass int) int {
	g := max(bwClass, 0)
	if concurrent(s.cfg.Scheme) {
		g += (class - 1) * max(len(s.cfg.Bandwidth), 1)
	}
	return g
}

// touch marks torrent t's sums stale. A torrent turns dirty when an addend
// appears, changes or vanishes (an arrival, a leg state change, a
// departure) and when a swap-remove moves a contributing peer, which
// changes the summation order.
func (s *sim) touch(t int) {
	if s.dirty == nil || s.dirty[t] {
		return
	}
	s.dirty[t] = true
	s.dirtyList = append(s.dirtyList, t)
}

// touchPeer marks every torrent p contributes to.
func (s *sim) touchPeer(p *peer) {
	lo, hi := s.active(p)
	for i := lo; i < hi; i++ {
		if st := p.legs[i].state; st == legDownloading || st == legSeeding {
			s.touch(p.legs[i].torrent)
		}
	}
}

// tftUpload returns the upload bandwidth a downloading peer devotes to
// tit-for-tat in its current torrent.
func (s *sim) tftUpload(p *peer) float64 {
	switch s.cfg.Scheme {
	case scheme.SimMTCD, scheme.SimMFCD:
		return p.mu / float64(p.class)
	case scheme.SimMTSD:
		return p.mu
	default: // CMFSD
		if p.class == 1 || p.finished == 0 {
			return p.mu
		}
		return p.rho * p.mu
	}
}

// virtualUpload returns the CMFSD virtual-seed bandwidth of a downloading
// peer (zero for other schemes and for peers with nothing finished).
func (s *sim) virtualUpload(p *peer) float64 {
	if s.cfg.Scheme != scheme.SimCMFSD || p.class == 1 || p.finished == 0 || p.seeding || p.vsQuit {
		return 0
	}
	return (1 - p.rho) * p.mu
}

// The per-event rate pass in stepOnce assembles every downloading leg's
// service rate from the two fluid-model sources (tit-for-tat η·ownUpload;
// seed-like capacity split by download weight) and refreshes each peer's
// virtual-seed receive rate for the Adapt Δ accounting. The fluid coupling
// makes every rate depend on the whole population, so every rate is
// recomputed every event, in one pass over the downloading legs. The
// goldens pin the exact floating-point operation order; three rules keep
// it while the pass does as little else as it can:
//
//   - The multi-torrent schemes keep their per-torrent sums (seedCap,
//     weightSum) between events. They depend only on leg states and fixed
//     per-peer values, never on progress, and a torrent is re-summed from
//     zero in peer-position order whenever an addend or the order changes
//     (touch): the same additions in the same order as a rescan. The share
//     term groupWeight/weightSum·seedCap is equal for every leg of one
//     (torrent, group), so it is computed once per re-summed torrent.
//   - Progress integration is deferred. advance only records dt; each
//     peer applies it (integrate) when the next pass visits it, before its
//     rates are overwritten, so it integrates with the rates and states the
//     advance saw. A peer the pass skips has no downloading leg and had
//     nothing to integrate. The event's actor integrates before its handler
//     changes it and an Adapt tick integrates every peer; nothing else
//     changes a peer between two passes.
//   - The CMFSD pool (one seed-like pool for all files) changes on almost
//     every event, so it is re-summed every event.

// populations counts downloading and seeding legs (a CMFSD real seed counts
// as one seeding leg) by scanning. The event loop uses the incrementally
// maintained dlCount/seedCount instead; this scan remains as the oracle the
// consistency tests compare the counters against.
func (s *sim) populations() (dl, seeds int) {
	for _, p := range s.peers {
		if p.seeding {
			seeds++
			continue
		}
		for i := range p.legs {
			switch p.legs[i].state {
			case legDownloading:
				dl++
			case legSeeding:
				seeds++
			}
		}
	}
	return dl, seeds
}

// refreshSums re-sums the dirty torrents in peer-position order and
// recomputes their share column.
func (s *sim) refreshSums() {
	if len(s.dirtyList) == 0 {
		return
	}
	for _, t := range s.dirtyList {
		s.seedCap[t], s.weightSum[t] = 0, 0
	}
	k := s.cfg.K
	for pos, p := range s.peers {
		if s.legOf == nil {
			if l := &p.legs[p.cursor]; s.dirty[l.torrent] {
				s.addLeg(p, l)
			}
			continue
		}
		row := s.legOf[pos*k : pos*k+k]
		for _, t := range s.dirtyList {
			if li := row[t]; li >= 0 {
				s.addLeg(p, &p.legs[li])
			}
		}
	}
	groups := len(s.groupWeight)
	for _, t := range s.dirtyList {
		col := s.share[t*groups : (t+1)*groups]
		ws, sc := s.weightSum[t], s.seedCap[t]
		for g, w := range s.groupWeight {
			col[g] = 0
			if ws > 0 {
				col[g] = w / ws * sc
			}
		}
		s.dirty[t] = false
	}
	s.dirtyList = s.dirtyList[:0]
}

// addLeg adds one leg's addends to its torrent's sums.
func (s *sim) addLeg(p *peer, l *leg) {
	switch l.state {
	case legSeeding:
		if s.cfg.Scheme == scheme.SimMTSD {
			s.seedCap[l.torrent] += p.mu
		} else {
			s.seedCap[l.torrent] += p.mu / float64(p.class)
		}
	case legDownloading:
		s.weightSum[l.torrent] += s.groupWeight[p.group]
	}
}

const never = math.MaxFloat64

// run is the main event loop.
func (s *sim) run() {
	if !s.init() {
		return
	}
	for s.stepOnce() {
	}
}

// init allocates the per-torrent sums, seeds the flash crowd and arms the
// recurring timers. It reports whether the event loop should run at all.
func (s *sim) init() bool {
	s.lambdaTot = s.corr.TotalUserRate()
	if s.lambdaTot <= 0 {
		return false
	}
	if s.cfg.Scheme != scheme.SimCMFSD {
		k, classes, bw := s.cfg.K, 1, max(len(s.cfg.Bandwidth), 1)
		if concurrent(s.cfg.Scheme) {
			classes = k
		}
		s.groupWeight = make([]float64, classes*bw)
		for c := 1; c <= classes; c++ {
			for b := 0; b < bw; b++ {
				w := 1.0
				if len(s.cfg.Bandwidth) > 0 {
					w = s.cfg.Bandwidth[b].Weight
				}
				if concurrent(s.cfg.Scheme) {
					w /= float64(c)
				}
				s.groupWeight[s.groupOf(c, b)] = w
			}
		}
		s.seedCap = make([]float64, k)
		s.weightSum = make([]float64, k)
		s.share = make([]float64, k*len(s.groupWeight))
		s.dirty = make([]bool, k)
		if concurrent(s.cfg.Scheme) {
			s.legOf = make([]int32, 0, k*(s.cfg.FlashCrowd+1))
		}
	}
	for i := 0; i < s.cfg.FlashCrowd; i++ {
		s.admit(s.newPeer())
	}
	s.nextSample = never
	if s.cfg.SampleEvery > 0 {
		s.res.Trace = trace.NewRecorder()
		s.samplePopulations()
		s.nextSample = s.cfg.SampleEvery
	}
	s.nextArrival = s.rng.Exp(s.lambdaTot)
	s.nextAdapt = never
	if s.cfg.Scheme == scheme.SimCMFSD && s.cfg.Adapt != nil {
		s.nextAdapt = s.cfg.Adapt.Period
	}
	return true
}

// stepOnce processes one event: the rate pass recomputes rates and scans
// the rate-coupled candidates (completions, abort and quit budgets), the
// timer heap supplies the earliest seed departure, then the clock advances
// and the winning event applies. It returns false once the horizon is
// reached.
//
// Candidate selection replicates the former linear scan's tie-breaking
// exactly: that scan kept the first candidate at a strictly smaller time,
// i.e. the lexicographic minimum of (time, scan position), where scan
// position is (source group, peer index, sub-candidate index within the
// peer). The heap orders its entries by the same key, and the strict <
// comparisons below reproduce the group order horizon < arrival < peer
// candidates < adapt < sample.
func (s *sim) stepOnce() bool {
	tNext := s.cfg.Horizon
	kind := evHorizon
	var actor *peer
	var actorLeg int
	// Scan position of the current best when it is a peer candidate;
	// (-1, -1) otherwise, so a seed timer never wins a tie against an
	// earlier source group.
	curPos, curSub := int32(-1), int32(-1)
	if s.nextArrival < tNext {
		tNext, kind = s.nextArrival, evArrival
	}

	eta := s.cfg.Eta
	if s.cfg.Scheme == scheme.SimCMFSD {
		// Pooled seed-like service: virtual seeds plus real seeds,
		// split over all downloaders by weight (Eq. 5's S term; equal
		// weights make it per capita).
		virtPool, realPool, weightSum := 0.0, 0.0, 0.0
		for _, p := range s.peers {
			if p.seeding {
				realPool += p.mu
				continue
			}
			if p.downloadingLeg() >= 0 {
				weightSum += p.weight
				virtPool += s.virtualUpload(p)
			}
		}
		for pos, p := range s.peers {
			li := p.downloadingLeg()
			if li < 0 {
				continue // a real seed's departure timer lives in the heap
			}
			s.integrate(p)
			share := 0.0
			if weightSum > 0 {
				share = p.weight / weightSum
			}
			l := &p.legs[li]
			l.rate = eta*s.tftUpload(p) + share*(virtPool+realPool)
			p.virtDownRate = share * virtPool
			if l.rate > 0 {
				if tc := s.now + l.remaining/l.rate; tc < tNext {
					tNext, kind, actor, actorLeg = tc, evCompletion, p, li
					curPos, curSub = int32(pos), int32(li)
				}
			}
			if s.plan != nil {
				// Abort and virtual-seed-quit budgets tick only while
				// the matching activity is in progress, so the injected
				// lifetimes are exponential in activity time — the same
				// clock the fluid θ·x term runs on.
				if ta := s.now + p.abortBudget; ta < tNext {
					tNext, kind, actor = ta, evPeerAbort, p
					curPos, curSub = int32(pos), int32(len(p.legs))
				}
				if s.virtualUpload(p) > 0 {
					if tq := s.now + p.vsQuitBudget; tq < tNext {
						tNext, kind, actor = tq, evVsQuit, p
						curPos, curSub = int32(pos), int32(len(p.legs))+1
					}
				}
			}
		}
	} else {
		s.refreshSums()
		groups, dt := len(s.groupWeight), s.dt
		for pos, p := range s.peers {
			// integrate, fused into the leg loop: each leg progresses
			// before its rate is overwritten, the clocks tick after.
			pending := p.epoch != s.epoch && dt > 0
			p.epoch = s.epoch
			anyDl := false
			tft := 0.0
			lo, hi := s.active(p)
			for i := lo; i < hi; i++ {
				l := &p.legs[i]
				if l.state != legDownloading {
					continue // seeding-leg timers live in the heap
				}
				if !anyDl {
					anyDl = true
					tft = eta * s.tftUpload(p)
				}
				if pending {
					l.progress(dt)
				}
				r := tft + s.share[l.torrent*groups+p.group]
				l.rate = r
				if r > 0 {
					if tc := s.now + l.remaining/r; tc < tNext {
						tNext, kind, actor, actorLeg = tc, evCompletion, p, i
						curPos, curSub = int32(pos), int32(i)
					}
				}
			}
			if !anyDl {
				continue
			}
			if pending {
				s.tick(p, dt)
			}
			if s.plan != nil {
				if ta := s.now + p.abortBudget; ta < tNext {
					tNext, kind, actor = ta, evPeerAbort, p
					curPos, curSub = int32(pos), int32(len(p.legs))
				}
			}
		}
	}

	if h, ok := s.timers.min(); ok {
		if h.at < tNext ||
			(h.at == tNext && (h.p.pos < curPos || (h.p.pos == curPos && h.sub < curSub))) {
			tNext, actor = h.at, h.p
			if s.cfg.Scheme == scheme.SimCMFSD {
				kind = evPeerDepart
			} else {
				kind, actorLeg = evLegDepart, int(h.sub)
			}
		}
	}
	if s.nextAdapt < tNext {
		tNext, kind = s.nextAdapt, evAdapt
	}
	if s.nextSample < tNext {
		tNext, kind = s.nextSample, evSample
	}

	s.advance(tNext)
	if actor != nil {
		// The handler may change the actor's legs and clocks: settle the
		// interval just advanced at the state it ran under first.
		s.integrate(actor)
	}

	switch kind {
	case evHorizon:
		return false
	case evArrival:
		s.admit(s.newPeer())
		s.nextArrival = s.now + s.rng.Exp(s.lambdaTot)
	case evCompletion:
		s.completeLeg(actor, actorLeg)
	case evLegDepart:
		s.timers.pop()
		actor.legs[actorLeg].state = legDone
		s.touch(actor.legs[actorLeg].torrent)
		s.seedCount--
		s.afterLegDeparture(actor, actorLeg)
	case evPeerDepart:
		s.timers.pop()
		s.departPeer(actor)
	case evPeerAbort:
		actor.aborted = true
		s.plan.NoteAbort()
		s.departPeer(actor)
	case evVsQuit:
		actor.vsQuit = true
		s.res.SeedQuits++
		s.plan.NoteSeedQuit()
	case evAdapt:
		s.adaptTick()
		s.nextAdapt = s.now + s.cfg.Adapt.Period
	case evSample:
		s.samplePopulations()
		s.nextSample = s.now + s.cfg.SampleEvery
	}
	return true
}

// samplePopulations records the current leg populations into the trace.
func (s *sim) samplePopulations() {
	dl, seeds := s.dlCount, s.seedCount
	// Errors are impossible here: the clock is monotone.
	_ = s.res.Trace.Record("downloaders", s.now, float64(dl))
	_ = s.res.Trace.Record("seeds", s.now, float64(seeds))
}

type eventKind int

const (
	evHorizon eventKind = iota
	evArrival
	evCompletion
	evLegDepart
	evPeerDepart
	evPeerAbort
	evVsQuit
	evAdapt
	evSample
)

// advance moves simulated time to tNext and accumulates the population
// averages. It does not integrate progress: it bumps the epoch and records
// dt, and each peer integrates that dt later (integrate).
func (s *sim) advance(tNext float64) {
	dt := tNext - s.now
	if dt < 0 {
		dt = 0
	}
	s.epoch++
	s.dt = dt
	if tNext >= s.cfg.Warmup {
		obsAt := math.Max(s.now, s.cfg.Warmup)
		s.dlPop.Observe(obsAt-s.cfg.Warmup, float64(s.dlCount))
		s.seedPop.Observe(obsAt-s.cfg.Warmup, float64(s.seedCount))
	}
	s.now = tNext
}

// integrate applies the last advance's dt to p unless p has already done
// so: each downloading leg progresses at the rate the last rate pass gave
// it, and a downloading peer's clocks tick. These are the operations, on
// the same operands, of a sweep over every peer inside advance; only the
// moment they run moves.
func (s *sim) integrate(p *peer) {
	if p.epoch == s.epoch {
		return
	}
	p.epoch = s.epoch
	if s.dt <= 0 || p.seeding {
		return
	}
	anyDl := false
	lo, hi := s.active(p)
	for i := lo; i < hi; i++ {
		if l := &p.legs[i]; l.state == legDownloading {
			l.progress(s.dt)
			anyDl = true
		}
	}
	if anyDl {
		s.tick(p, s.dt)
	}
}

// progress drains dt of downloading at the leg's current rate.
func (l *leg) progress(dt float64) {
	l.remaining -= l.rate * dt
	if l.remaining < 0 {
		l.remaining = 0
	}
}

// tick runs a downloading peer's clocks for dt: download time, the abort
// budget and the CMFSD virtual-seed accounting.
func (s *sim) tick(p *peer, dt float64) {
	p.dlAccum += dt
	p.abortBudget -= dt
	if vu := s.virtualUpload(p); vu > 0 {
		p.virtUp += vu * dt
		p.vsQuitBudget -= dt
	}
	p.virtDown += p.virtDownRate * dt
}

// completeLeg handles a finished file download.
func (s *sim) completeLeg(p *peer, li int) {
	l := &p.legs[li]
	l.remaining = 0
	p.finished++
	p.lastCompletionAt = s.now
	switch s.cfg.Scheme {
	case scheme.SimMTCD, scheme.SimMFCD:
		l.state = legSeeding
		l.seedDepartAt = s.now + s.rng.Exp(s.cfg.Gamma)
		s.dlCount--
		s.seedCount++
		s.timers.push(l.seedDepartAt, p, int32(li))
		s.touch(l.torrent)
	case scheme.SimMTSD:
		l.state = legSeeding
		l.seedDepartAt = s.now + s.rng.Exp(s.cfg.Gamma)
		s.dlCount--
		s.seedCount++
		s.timers.push(l.seedDepartAt, p, int32(li))
		s.touch(l.torrent)
		// The next file starts only after this seeding phase
		// (sequential: download, seed, move on).
	case scheme.SimCMFSD:
		l.state = legDone
		s.dlCount--
		if p.finished == p.class {
			p.seeding = true
			p.seedDepartAt = s.now + s.rng.Exp(s.cfg.Gamma)
			s.seedCount++
			s.timers.push(p.seedDepartAt, p, 0)
		} else {
			p.cursor++
			p.legs[p.cursor].state = legDownloading
			s.dlCount++
		}
	}
}

// afterLegDeparture resumes a sequential peer or retires a concurrent one.
func (s *sim) afterLegDeparture(p *peer, li int) {
	if s.cfg.Scheme == scheme.SimMTSD {
		if li == p.cursor && p.cursor+1 < len(p.legs) {
			p.cursor++
			p.legs[p.cursor].state = legDownloading
			s.dlCount++
			s.touch(p.legs[p.cursor].torrent)
			return
		}
	}
	for i := range p.legs {
		if p.legs[i].state != legDone {
			return
		}
	}
	s.departPeer(p)
}

// departPeer removes the peer and records its statistics.
func (s *sim) departPeer(dead *peer) {
	// Population counters and pending seed timers for whatever the peer
	// leaves behind (an abort can retire seeding legs mid-flight; a fired
	// departure timer was already popped, so remove is a no-op for it).
	s.touchPeer(dead)
	if dead.seeding {
		s.seedCount--
		s.timers.remove(dead, 0)
	}
	for i := range dead.legs {
		switch dead.legs[i].state {
		case legDownloading:
			s.dlCount--
		case legSeeding:
			s.seedCount--
			s.timers.remove(dead, int32(i))
		}
	}
	// Swap-remove from the peer list; the moved peer's position key
	// decreased, so its pending timers re-sift in the heap.
	i := int(dead.pos)
	last := len(s.peers) - 1
	moved := s.peers[last]
	s.peers[i] = moved
	s.peers = s.peers[:last]
	if moved != dead {
		moved.pos = int32(i)
		s.timers.fixPos(moved)
		s.touchPeer(moved)
	}
	if s.legOf != nil {
		k := s.cfg.K
		copy(s.legOf[i*k:i*k+k], s.legOf[last*k:])
		s.legOf = s.legOf[:last*k]
	}
	if !dead.counted {
		return
	}
	online := s.now - dead.arrivalAt
	download := dead.dlAccum
	cs := &s.res.Classes[dead.class-1]
	if dead.aborted {
		s.res.AbortedUsers++
	} else {
		cs.Completed++
		s.res.CompletedUsers++
	}
	cs.OnlineTime.Add(online)
	cs.DownloadTime.Add(download)
	if dead.bwClass >= 0 && dead.bwClass < len(s.res.Bandwidth) {
		bs := &s.res.Bandwidth[dead.bwClass]
		if !dead.aborted {
			bs.Completed++
		}
		bs.OnlineTime.Add(online)
		bs.DownloadTime.Add(download)
	}
	s.sumOnline += online
	s.sumDownload += download
	// Per-file averages divide by torrent entries, matching the fluid
	// model's x/λ Little's-law accounting: an aborted sequential user
	// charges only the files it actually started — torrents never entered
	// contribute neither time nor a file. Completed users (and aborted
	// concurrent ones, whose legs all start at arrival) charge the full
	// class size.
	files := dead.class
	if dead.aborted {
		files = 0
		for i := range dead.legs {
			if dead.legs[i].state != legWaiting {
				files++
			}
		}
	}
	s.sumFiles += files
	if s.cfg.Scheme == scheme.SimCMFSD && dead.class > 1 {
		s.res.FinalRho.Add(dead.rho)
	}
}

// adaptTick runs the Adapt controller on every eligible peer. It reads
// and resets the virtual-seed accumulators and changes ρ, so every peer
// integrates first.
func (s *sim) adaptTick() {
	period := s.cfg.Adapt.Period
	for _, p := range s.peers {
		s.integrate(p)
		if p.ctrl == nil || p.seeding {
			p.virtUp, p.virtDown = 0, 0
			continue
		}
		if p.finished >= 1 && p.class > 1 {
			delta := (p.virtUp - p.virtDown) / period
			p.rho = p.ctrl.Observe(delta)
		}
		p.virtUp, p.virtDown = 0, 0
	}
}

// finish computes the aggregate metrics. Peers still in flight at the
// horizon are censored (not counted).
func (s *sim) finish() {
	if s.sumFiles > 0 {
		s.res.AvgOnlinePerFile = s.sumOnline / float64(s.sumFiles)
		s.res.AvgDownloadPerFile = s.sumDownload / float64(s.sumFiles)
	} else {
		s.res.AvgOnlinePerFile = math.NaN()
		s.res.AvgDownloadPerFile = math.NaN()
	}
	span := s.cfg.Horizon - s.cfg.Warmup
	s.res.MeanDownloaders = s.dlPop.MeanUntil(span)
	s.res.MeanSeeds = s.seedPop.MeanUntil(span)
}
