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
	torrent      int
	state        legState
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

	// pos is the peer's index in s.peers, maintained across swap-removes;
	// heapIdx[sub] is the heap slot of the peer's pending seed timer for
	// sub (leg index, or 0 for the CMFSD peer timer), -1 when none.
	pos     int32
	heapIdx []int32
}

// downloadingLeg returns the active downloading leg index, or -1.
func (p *peer) downloadingLeg() int {
	if p.seeding {
		return -1
	}
	for i := range p.legs {
		if p.legs[i].state == legDownloading {
			return i
		}
	}
	return -1
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

	now        float64
	totalRate  float64
	classCDF   []float64
	dlPop      stats.TimeWeighted
	seedPop    stats.TimeWeighted
	statsBegan bool

	sumOnline, sumDownload float64
	sumFiles               int

	// Event-loop state (owned by init/stepOnce).
	lambdaTot   float64
	nextArrival float64
	nextAdapt   float64
	nextSample  float64

	// timers holds the pending seed-departure events (the only absolute,
	// rate-independent times); everything rate-coupled is recomputed per
	// event in stepOnce's fused pass.
	timers timerHeap
	// dlCount / seedCount incrementally track the leg populations the
	// former populations() scan counted (integers, so incremental
	// maintenance is exact).
	dlCount, seedCount int
	// Per-event scratch for the multi-torrent rate pass.
	seedCapBuf, weightSumBuf []float64
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

// fileSubset draws a uniform random subset of size n of the K files.
func (s *sim) fileSubset(n int) []int {
	perm := s.rng.Perm(s.cfg.K)
	return perm[:n]
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
		heapIdx:      make([]int32, class),
		counted:      s.now >= s.cfg.Warmup,
		rho:          s.cfg.Rho,
		bwClass:      -1,
		mu:           s.cfg.Mu,
		weight:       1,
		abortBudget:  math.Inf(1),
		vsQuitBudget: math.Inf(1),
	}
	for i := range p.heapIdx {
		p.heapIdx[i] = -1
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
		p.legs[i] = leg{torrent: f, state: legWaiting, remaining: 1}
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
	if concurrent(s.cfg.Scheme) {
		s.dlCount += p.class
	} else {
		s.dlCount++
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

// legWeight is the download-capacity weight of one downloading leg for
// splitting seed service (assumption 2): the peer's class weight, divided
// across its legs under the concurrent schemes.
func (s *sim) legWeight(p *peer) float64 {
	w := p.weight
	if concurrent(s.cfg.Scheme) {
		w /= float64(p.class)
	}
	return w
}

// The per-event rate pass in stepOnce assembles every downloading leg's
// service rate from the two fluid-model sources (tit-for-tat η·ownUpload;
// seed-like capacity split by download weight) and refreshes each peer's
// virtual-seed receive rate for the Adapt Δ accounting. Rates are
// recomputed from scratch every event in a fixed summation order: the
// fluid coupling makes every rate depend on the whole population, and the
// goldens pin the exact floating-point operation order.

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

const never = math.MaxFloat64

// run is the main event loop.
func (s *sim) run() {
	if !s.init() {
		return
	}
	for s.stepOnce() {
	}
}

// init seeds the flash crowd and arms the recurring timers. It reports
// whether the event loop should run at all.
func (s *sim) init() bool {
	s.lambdaTot = s.corr.TotalUserRate()
	if s.lambdaTot <= 0 {
		return false
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

// stepOnce processes one event: a fused pass recomputes rates and scans
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
			if li := p.downloadingLeg(); li >= 0 {
				weightSum += p.weight
				virtPool += s.virtualUpload(p)
			}
		}
		for pos, p := range s.peers {
			p.virtDownRate = 0
			if p.seeding {
				continue // departure timer lives in the heap
			}
			li := p.downloadingLeg()
			if li < 0 {
				continue
			}
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
		// Per-torrent accounting for the multi-torrent schemes, into
		// reusable scratch (the former per-event allocations).
		k := s.cfg.K
		if cap(s.seedCapBuf) < k {
			s.seedCapBuf = make([]float64, k)
			s.weightSumBuf = make([]float64, k)
		}
		seedCap := s.seedCapBuf[:k]
		weightSum := s.weightSumBuf[:k]
		for i := range seedCap {
			seedCap[i] = 0
			weightSum[i] = 0
		}
		for _, p := range s.peers {
			p.virtDownRate = 0
			for i := range p.legs {
				l := &p.legs[i]
				switch l.state {
				case legSeeding:
					if s.cfg.Scheme == scheme.SimMTSD {
						seedCap[l.torrent] += p.mu
					} else {
						seedCap[l.torrent] += p.mu / float64(p.class)
					}
				case legDownloading:
					weightSum[l.torrent] += s.legWeight(p)
				}
			}
		}
		for pos, p := range s.peers {
			anyDl := false
			for i := range p.legs {
				l := &p.legs[i]
				if l.state != legDownloading {
					continue // seeding-leg timers live in the heap
				}
				anyDl = true
				r := eta * s.tftUpload(p)
				if weightSum[l.torrent] > 0 {
					r += s.legWeight(p) / weightSum[l.torrent] * seedCap[l.torrent]
				}
				l.rate = r
				if r > 0 {
					if tc := s.now + l.remaining/r; tc < tNext {
						tNext, kind, actor, actorLeg = tc, evCompletion, p, i
						curPos, curSub = int32(pos), int32(i)
					}
				}
			}
			if s.plan != nil && anyDl {
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

// advance moves simulated time to tNext, integrating progress and
// accumulators.
func (s *sim) advance(tNext float64) {
	dt := tNext - s.now
	if dt < 0 {
		dt = 0
	}
	if dt > 0 {
		for _, p := range s.peers {
			if p.seeding {
				continue
			}
			anyDl := false
			for i := range p.legs {
				l := &p.legs[i]
				if l.state != legDownloading {
					continue
				}
				anyDl = true
				l.remaining -= l.rate * dt
				if l.remaining < 0 {
					l.remaining = 0
				}
			}
			if anyDl {
				p.dlAccum += dt
				p.abortBudget -= dt
				if vu := s.virtualUpload(p); vu > 0 {
					p.virtUp += vu * dt
					p.vsQuitBudget -= dt
				}
				p.virtDown += p.virtDownRate * dt
			}
		}
	}
	if tNext >= s.cfg.Warmup {
		obsAt := math.Max(s.now, s.cfg.Warmup)
		dl, seeds := s.dlCount, s.seedCount
		if !s.statsBegan {
			s.statsBegan = true
		}
		s.dlPop.Observe(obsAt-s.cfg.Warmup, float64(dl))
		s.seedPop.Observe(obsAt-s.cfg.Warmup, float64(seeds))
	}
	s.now = tNext
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
	case scheme.SimMTSD:
		l.state = legSeeding
		l.seedDepartAt = s.now + s.rng.Exp(s.cfg.Gamma)
		s.dlCount--
		s.seedCount++
		s.timers.push(l.seedDepartAt, p, int32(li))
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

// adaptTick runs the Adapt controller on every eligible peer.
func (s *sim) adaptTick() {
	period := s.cfg.Adapt.Period
	for _, p := range s.peers {
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
