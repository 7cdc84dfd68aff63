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
//
// Users are accounted in a replica.Ledger, the same one internal/swarm
// keeps: Result embeds the replica.Outcome it fills, in simulated time.
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
	"mfdl/internal/replica"
	"mfdl/internal/rng"
	"mfdl/internal/scheme"
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

// Validate checks the configuration. The float checks are written so
// that NaN fails them: a comparison with NaN is false either way round.
func (c Config) Validate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.K < 1 {
		return fmt.Errorf("eventsim: K = %d must be >= 1", c.K)
	}
	if !(c.Lambda0 > 0) || math.IsInf(c.Lambda0, 1) {
		return fmt.Errorf("eventsim: λ₀ = %v must be positive and finite", c.Lambda0)
	}
	if !(c.P > 0 && c.P <= 1) {
		return fmt.Errorf("eventsim: p = %v outside (0,1]", c.P)
	}
	if c.Scheme < scheme.SimMTCD || c.Scheme > scheme.SimCMFSD {
		return fmt.Errorf("eventsim: unknown scheme %d", int(c.Scheme))
	}
	if !(c.Rho >= 0 && c.Rho <= 1) {
		return fmt.Errorf("eventsim: ρ = %v outside [0,1]", c.Rho)
	}
	if c.Adapt != nil {
		if err := c.Adapt.Validate(); err != nil {
			return err
		}
	}
	if !(c.CheaterFraction >= 0 && c.CheaterFraction <= 1) {
		return fmt.Errorf("eventsim: cheater fraction %v outside [0,1]", c.CheaterFraction)
	}
	if !(c.Horizon > 0) || math.IsInf(c.Horizon, 1) {
		return errors.New("eventsim: horizon must be positive and finite")
	}
	if !(c.Warmup >= 0) || c.Warmup >= c.Horizon {
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
		for i, b := range c.Bandwidth {
			if slices.ContainsFunc(c.Bandwidth[:i], func(o BandwidthClass) bool { return o.Name == b.Name }) {
				return fmt.Errorf("eventsim: bandwidth class %q named twice", b.Name)
			}
			if !(b.Mu > 0 && b.Weight > 0) {
				return fmt.Errorf("eventsim: bandwidth class %q needs positive μ and weight", b.Name)
			}
			if !(b.Fraction >= 0) {
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

// Result is the outcome of one run: the user ledger's totals, in simulated
// time units, and the population trace.
type Result struct {
	Config Config
	// Outcome holds the user statistics; Bandwidth is parallel to
	// Config.Bandwidth. FinalRho counts every multi-file CMFSD peer that
	// departed after warmup, completed or aborted, cheaters (pinned at
	// ρ = 1) included.
	replica.Outcome
	// Trace holds the sampled "downloaders" and "seeds" population
	// series when Config.SampleEvery > 0, else nil.
	Trace *trace.Recorder
}

// legState is the lifecycle of one requested file.
type legState uint8

const (
	legWaiting legState = iota
	legDownloading
	// legSeeding is a leg's per-torrent seeding (MTCD/MFCD/MTSD); under
	// CMFSD it marks the real-seed phase after the last file.
	legSeeding
	legDone
)

// leg is one active leg slot: a downloading or seeding file, or one that
// is done or not yet started.
type leg struct {
	remaining, rate float64
	torrent         int32
	state           legState
}

// peer is the cold part of a user's state: what only the user's own
// events, the fault plan, the Adapt controller and the ledger read.
type peer struct {
	id        uint64
	arrivalAt float64
	bwClass   int  // index into Config.Bandwidth, -1 when homogeneous
	counted   bool // arrived after warmup: include in statistics
	aborted   bool
	ctrl      *adapt.Controller

	// Fault budgets: remaining downloading time until an injected abort
	// and remaining virtual-seeding time until an injected quit, both +Inf
	// and left unticked when faults are off.
	abortBudget, vsQuitBudget float64
	// CMFSD virtual-seed accounting, kept only for the Adapt controller.
	virtUp, virtDown, virtDownRate float64
}

// Run executes the simulation and aggregates the result.
func Run(cfg Config) (*Result, error) {
	s, err := newSim(cfg)
	if err != nil {
		return nil, err
	}
	s.run()
	s.ledger.Finish(cfg.Horizon - cfg.Warmup)
	return s.res, nil
}

// newSim validates cfg and returns a sim at t = 0, which run drives. It
// returns the sim by value so that Run's copy can live on the stack.
func newSim(cfg Config) (sim, error) {
	if err := cfg.Validate(); err != nil {
		return sim{}, err
	}
	corr, err := correlation.New(cfg.K, cfg.P, cfg.Lambda0)
	if err != nil {
		return sim{}, err
	}
	// The fault plan mixes the sim seed into the chaos seed so replicas
	// (distinct sim seeds) draw decorrelated faults while each (seed,
	// chaos-seed) pair stays fully deterministic.
	plan, err := faults.NewPlan(cfg.Faults.Mixed(cfg.Seed))
	if err != nil {
		return sim{}, err
	}
	res := &Result{Config: cfg}
	names := make([]string, len(cfg.Bandwidth))
	for i, b := range cfg.Bandwidth {
		names[i] = b.Name
	}
	return sim{
		cfg:    cfg,
		corr:   corr,
		rng:    rng.New(cfg.Seed),
		plan:   plan,
		res:    res,
		ledger: replica.NewLedger(&res.Outcome, cfg.K, names...),
	}, nil
}

type sim struct {
	cfg    Config
	corr   *correlation.Model
	rng    *rng.Source
	plan   *faults.Plan // nil when faults are disabled
	nextID uint64
	res    *Result
	ledger replica.Ledger

	now  float64
	perm []int // fileSubset's permutation buffer

	// Event-loop state (owned by init/stepOnce).
	nextArrival float64
	nextAdapt   float64
	nextSample  float64

	// timers holds the pending seed-departure events (the only absolute,
	// rate-independent times); everything rate-coupled is recomputed per
	// event in stepOnce's rate pass.
	timers timerHeap
	// dlCount / seedCount incrementally track the leg populations the
	// populations() scan counts (integers, so incremental maintenance is
	// exact).
	dlCount, seedCount int

	// Deferred progress integration: advance bumps epoch and records its
	// dt; each peer applies that dt when it is next visited (integrate).
	epoch uint64
	dt    float64

	// Peer state in dense columns indexed by position (DESIGN §4c). A
	// departure swap-removes: the last position moves into the vacated one
	// in every column, slab, addend column and timer slot at once.
	//   - peers: the cold state.
	//   - class, group (the column of share), finished files, cursor (the
	//     current file of a sequential peer, 0 under the concurrent
	//     schemes); μ, the download weight, ρ, the upload columns tft and
	//     vu (see setUploads), vsQuit (virtual seeding stopped by a fault),
	//     epochs (the last advance the position has integrated) and dlTime
	//     (downloading time for the ledger).
	//   - legs: w slots per position, the active legs (see active): every
	//     requested file under the concurrent schemes (w = K), the cursor
	//     file under the sequential ones (w = 1). files: the K requested
	//     torrents in request order, -1 past the class.
	peers                          []peer
	class, group, finished, cursor []int32
	mu, weight, rho, tft, vu       []float64
	vsQuit                         []bool
	epochs                         []uint64
	dlTime                         []float64
	w                              int
	legs                           []leg
	files                          []int32

	// Per-torrent state of the multi-torrent schemes, kept between events
	// (nil under CMFSD, which pools its seed service and re-sums the pool
	// every event), and the addend columns every scheme keeps:
	//   - seedCap[t], weightSum[t]: torrent t's seed capacity and
	//     downloading weight, re-summed only while t is dirty (touch);
	//   - groupWeight[g]: the download-capacity weight of one downloading
	//     leg of group g for splitting seed service (assumption 2), the
	//     bandwidth class's weight, divided across the legs under the
	//     concurrent schemes, where a group is also a user class;
	//   - share[t*len(groupWeight)+g]: groupWeight[g]/weightSum[t]·seedCap[t];
	//   - wAdd[t*capPos+pos], cAdd[t*capPos+pos]: the addends position pos
	//     contributes to weightSum[t] and seedCap[t], 0 when it has none;
	//     under CMFSD one row, a downloader's weight and a real seed's μ.
	//     capPos, the columns' stride, doubles when the positions fill it.
	seedCap, weightSum, groupWeight, share []float64
	dirty                                  []bool
	dirtyList                              []int
	wAdd, cAdd                             []float64
	capPos                                 int
}

// active returns the active leg slots of position pos: the first class of
// its w slots under the concurrent schemes, the one cursor slot under the
// sequential ones.
func (s *sim) active(pos int) []leg {
	return s.legs[pos*s.w : pos*s.w+min(s.w, int(s.class[pos]))]
}

// swapOut swap-removes run i from a column of n entries per position: the
// last run moves over it and the column shrinks by one run.
func swapOut[T any](c []T, i, n int) []T {
	last := len(c) - n
	copy(c[i*n:i*n+n], c[last:])
	return c[:last]
}

// fileSubset draws a uniform random subset of size n of the K files. The
// result aliases a buffer the next call overwrites.
func (s *sim) fileSubset(n int) []int {
	s.perm = s.rng.PermInto(s.perm, s.cfg.K)
	return s.perm[:n]
}

// arrive materializes an arriving user at the next position, maintaining
// the incremental leg-population counters and the torrent addends.
func (s *sim) arrive() {
	class := s.corr.Class(s.rng.Float64())
	files := s.fileSubset(class)
	p := peer{
		id:           s.nextID,
		arrivalAt:    s.now,
		bwClass:      -1,
		counted:      s.now >= s.cfg.Warmup,
		abortBudget:  math.Inf(1),
		vsQuitBudget: math.Inf(1),
	}
	s.nextID++
	mu, weight, rho := s.cfg.Mu, 1.0, s.cfg.Rho
	if len(s.cfg.Bandwidth) > 0 {
		u := s.rng.Float64()
		acc := 0.0
		for i, b := range s.cfg.Bandwidth {
			acc += b.Fraction
			if u <= acc || i == len(s.cfg.Bandwidth)-1 {
				p.bwClass, mu, weight = i, b.Mu, b.Weight
				break
			}
		}
	}
	if s.plan != nil {
		// All fault draws come from per-peer streams keyed by id, so the
		// main RNG above is untouched relative to a faults-off run.
		p.abortBudget = s.plan.AbortAfter(p.id)
		if s.cfg.Scheme == scheme.SimCMFSD && class > 1 {
			p.vsQuitBudget = s.plan.SeedQuitAfter(p.id)
		}
		if f := s.plan.UploadFactor(p.id); f < 1 {
			mu *= f
		}
	}
	if s.cfg.Scheme == scheme.SimCMFSD {
		if s.rng.Bernoulli(s.cfg.CheaterFraction) {
			rho = 1 // a cheater pins ρ = 1
		} else if s.cfg.Adapt != nil {
			ctrl, err := adapt.NewController(*s.cfg.Adapt)
			if err == nil {
				p.ctrl = ctrl
				rho = ctrl.Rho()
			}
		}
	}
	if p.counted {
		s.ledger.Arrive()
	}

	pos := len(s.peers)
	s.peers = append(s.peers, p)
	s.class = append(s.class, int32(class))
	s.group = append(s.group, int32(s.groupOf(class, p.bwClass)))
	s.finished = append(s.finished, 0)
	s.cursor = append(s.cursor, 0)
	s.mu = append(s.mu, mu)
	s.weight = append(s.weight, weight)
	s.rho = append(s.rho, rho)
	s.tft = append(s.tft, 0)
	s.vu = append(s.vu, 0)
	s.vsQuit = append(s.vsQuit, false)
	s.epochs = append(s.epochs, s.epoch)
	s.dlTime = append(s.dlTime, 0)
	for i := range s.cfg.K {
		f := int32(-1)
		if i < class {
			f = int32(files[i])
		}
		s.files = append(s.files, f)
	}
	for i := range s.w {
		l := leg{remaining: 1, torrent: -1}
		if i < class {
			l.torrent, l.state = int32(files[i]), legDownloading
		}
		s.legs = append(s.legs, l)
	}
	s.setUploads(pos)
	s.timers.addPos()
	if pos == s.capPos {
		s.growAddends()
	}
	for sl := range s.active(pos) {
		s.setAddend(pos, sl)
	}
	s.dlCount += len(s.active(pos))
}

// growAddends doubles the stride of the torrent addend columns, keeping
// every torrent's run of positions.
func (s *sim) growAddends() {
	rows, c := len(s.wAdd)/s.capPos, 2*s.capPos
	w, sc := make([]float64, rows*c), make([]float64, rows*c)
	for t := range rows {
		copy(w[t*c:], s.wAdd[t*s.capPos:(t+1)*s.capPos])
		copy(sc[t*c:], s.cAdd[t*s.capPos:(t+1)*s.capPos])
	}
	s.wAdd, s.cAdd, s.capPos = w, sc, c
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

// touchPeer marks every torrent the peer at pos contributes to.
func (s *sim) touchPeer(pos int) {
	for _, l := range s.active(pos) {
		if l.state == legDownloading || l.state == legSeeding {
			s.touch(int(l.torrent))
		}
	}
}

// setAddend writes what leg slot sl of position pos adds, in its current
// state, to its torrent's sums, or under CMFSD to the pool's: a
// downloading leg's weight, a seeding leg's capacity, 0 otherwise. It
// marks the torrent dirty. Every leg state change goes through it.
func (s *sim) setAddend(pos, sl int) {
	l := &s.legs[pos*s.w+sl]
	w, c := 0.0, 0.0
	switch l.state {
	case legSeeding:
		c = s.mu[pos]
	case legDownloading:
		w = s.weight[pos]
	}
	if concurrent(s.cfg.Scheme) {
		w /= float64(s.class[pos])
		c /= float64(s.class[pos])
	}
	t := int(l.torrent)
	if s.cfg.Scheme == scheme.SimCMFSD {
		t = 0 // the one pool
	}
	s.wAdd[t*s.capPos+pos], s.cAdd[t*s.capPos+pos] = w, c
	s.touch(t)
}

// setUploads recomputes the upload columns of the peer at pos from its
// class, finished count, ρ, μ, real-seed phase and vsQuit; every change to
// one of them calls it. tft is the upload bandwidth a downloading peer
// devotes to tit-for-tat in its current torrent; vu its CMFSD virtual-seed
// bandwidth (zero for other schemes and for peers with nothing finished).
func (s *sim) setUploads(pos int) {
	mu, class, finished := s.mu[pos], s.class[pos], s.finished[pos]
	s.tft[pos], s.vu[pos] = mu, 0
	switch {
	case concurrent(s.cfg.Scheme):
		s.tft[pos] = mu / float64(class)
	case s.cfg.Scheme == scheme.SimCMFSD && class > 1 && finished > 0:
		s.tft[pos] = s.rho[pos] * mu
		if s.legs[pos].state != legSeeding && !s.vsQuit[pos] {
			s.vu[pos] = (1 - s.rho[pos]) * mu
		}
	}
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
	for pos := range s.peers {
		for _, l := range s.active(pos) {
			switch l.state {
			case legDownloading:
				dl++
			case legSeeding:
				seeds++
			}
		}
	}
	return dl, seeds
}

// refreshSums re-sums the dirty torrents from their addend columns in
// position order and recomputes their share column. A position without a
// leg in the torrent adds +0, which leaves the non-negative running sum's
// bits unchanged, so the sums are a rescan's.
func (s *sim) refreshSums() {
	n, groups := len(s.peers), len(s.groupWeight)
	for _, t := range s.dirtyList {
		ws, sc := 0.0, 0.0
		for _, a := range s.wAdd[t*s.capPos : t*s.capPos+n] {
			ws += a
		}
		for _, a := range s.cAdd[t*s.capPos : t*s.capPos+n] {
			sc += a
		}
		s.weightSum[t], s.seedCap[t] = ws, sc
		col := s.share[t*groups : (t+1)*groups]
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
	if s.corr.TotalUserRate() <= 0 {
		return false
	}
	s.w = 1
	if concurrent(s.cfg.Scheme) {
		s.w = s.cfg.K
	}
	s.timers.w = s.w
	rows := 1 // CMFSD's one pool
	if s.cfg.Scheme != scheme.SimCMFSD {
		rows = s.cfg.K
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
	}
	s.capPos = 16
	s.wAdd, s.cAdd = make([]float64, rows*s.capPos), make([]float64, rows*s.capPos)
	for i := 0; i < s.cfg.FlashCrowd; i++ {
		s.arrive()
	}
	s.nextSample = never
	if s.cfg.SampleEvery > 0 {
		s.res.Trace = trace.NewRecorder()
		s.samplePopulations()
		s.nextSample = s.cfg.SampleEvery
	}
	s.nextArrival = s.rng.Exp(s.corr.TotalUserRate())
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
// position is (source group, peer position, sub-candidate within the
// peer: its active leg slots, then its abort, then its quit). The heap
// orders its entries by the same key, and the strict < comparisons below
// reproduce the group order horizon < arrival < peer candidates < adapt <
// sample.
func (s *sim) stepOnce() bool {
	tNext := s.cfg.Horizon
	kind := evHorizon
	// actor is the position of the current best when it is a peer
	// candidate and curSub its sub-candidate; -1 otherwise, so a seed
	// timer never wins a tie against an earlier source group.
	actor, actorLeg, curSub := -1, 0, int32(-1)
	if s.nextArrival < tNext {
		tNext, kind = s.nextArrival, evArrival
	}

	eta := s.cfg.Eta
	if s.cfg.Scheme == scheme.SimCMFSD {
		// Pooled seed-like service: virtual seeds plus real seeds,
		// split over all downloaders by weight (Eq. 5's S term; equal
		// weights make it per capita). A CMFSD position has one leg slot.
		// Three sums over the pool's addend row (a downloader's weight, a
		// real seed's μ, +0 elsewhere) and the virtual-upload column (+0
		// but for virtual seeds), in position order.
		n := len(s.peers)
		legs, weight, wAdd, cAdd, vu := s.legs, s.weight, s.wAdd[:n], s.cAdd[:n], s.vu[:n]
		virtPool, realPool, weightSum := 0.0, 0.0, 0.0
		for pos := range vu {
			weightSum += wAdd[pos]
			realPool += cAdd[pos]
			virtPool += vu[pos]
		}
		// Equal weights give equal shares: the quotient of the last weight
		// seen is reused while the weight repeats.
		pool, now, dt, epoch, adaptOn := virtPool+realPool, s.now, s.dt, s.epoch, s.cfg.Adapt != nil
		share, shareOf, lim := 0.0, math.NaN(), reach(tNext, now)
		for pos := range legs {
			l := &legs[pos]
			if l.state != legDownloading {
				continue // a real seed's departure timer lives in the heap
			}
			if s.epochs[pos] != epoch { // integrate, inlined
				s.epochs[pos] = epoch
				if dt > 0 {
					l.progress(dt)
					s.tick(pos, dt)
				}
			}
			if w := weight[pos]; w != shareOf {
				share, shareOf = 0, w
				if weightSum > 0 {
					share = w / weightSum
				}
			}
			l.rate = eta*s.tft[pos] + share*pool
			if adaptOn {
				s.peers[pos].virtDownRate = share * virtPool
			}
			if l.rate > 0 && l.remaining <= lim*l.rate {
				if tc := now + l.remaining/l.rate; tc < tNext {
					tNext, kind, actor, actorLeg, curSub = tc, evCompletion, pos, 0, 0
					lim = reach(tNext, now)
				}
			}
			if s.plan != nil {
				// Abort and virtual-seed-quit budgets tick only while
				// the matching activity is in progress, so the injected
				// lifetimes are exponential in activity time — the same
				// clock the fluid θ·x term runs on.
				p := &s.peers[pos]
				if ta := now + p.abortBudget; ta < tNext {
					tNext, kind, actor, curSub = ta, evPeerAbort, pos, 1
				}
				if vu[pos] > 0 {
					if tq := now + p.vsQuitBudget; tq < tNext {
						tNext, kind, actor, curSub = tq, evVsQuit, pos, 2
					}
				}
			}
		}
	} else {
		s.refreshSums()
		// Locals, not fields: the leg stores below would make the compiler
		// reload every field of s on each leg.
		groups, dt, now, share, epoch := len(s.groupWeight), s.dt, s.now, s.share, s.epoch
		lim := reach(tNext, now)
		for pos := range s.peers {
			// integrate, fused into the leg loop: each leg progresses
			// before its rate is overwritten, the clocks tick after.
			pending := s.epochs[pos] != epoch && dt > 0
			s.epochs[pos] = epoch
			anyDl, tft := false, eta*s.tft[pos]
			legs, g := s.active(pos), int(s.group[pos])
			for i := range legs {
				l := &legs[i]
				if l.state != legDownloading {
					continue // seeding-leg timers live in the heap
				}
				anyDl = true
				if pending {
					l.progress(dt)
				}
				r := tft + share[int(l.torrent)*groups+g]
				l.rate = r
				if r > 0 && l.remaining <= lim*r {
					if tc := now + l.remaining/r; tc < tNext {
						tNext, kind, actor, actorLeg, curSub = tc, evCompletion, pos, i, int32(i)
						lim = reach(tNext, now)
					}
				}
			}
			if !anyDl {
				continue
			}
			if pending {
				s.tick(pos, dt)
			}
			if s.plan != nil {
				if ta := now + s.peers[pos].abortBudget; ta < tNext {
					tNext, kind, actor, curSub = ta, evPeerAbort, pos, int32(len(legs))
				}
			}
		}
	}

	if h, ok := s.timers.min(); ok {
		if h.at < tNext ||
			(h.at == tNext && (int(h.pos) < actor || (int(h.pos) == actor && h.sub < curSub))) {
			tNext, actor = h.at, int(h.pos)
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
	if actor >= 0 {
		// The handler may change the actor's legs and clocks: settle the
		// interval just advanced at the state it ran under first.
		s.integrate(actor)
	}

	switch kind {
	case evHorizon:
		return false
	case evArrival:
		s.arrive()
		s.nextArrival = s.now + s.rng.Exp(s.corr.TotalUserRate())
	case evCompletion:
		s.completeLeg(actor, actorLeg)
	case evLegDepart:
		s.timers.pop()
		s.legs[actor*s.w+actorLeg].state = legDone
		s.setAddend(actor, actorLeg)
		s.seedCount--
		s.afterLegDeparture(actor)
	case evPeerDepart:
		s.timers.pop()
		s.departPeer(actor)
	case evPeerAbort:
		s.peers[actor].aborted = true
		s.departPeer(actor)
	case evVsQuit:
		s.vsQuit[actor] = true
		s.setUploads(actor)
		s.res.SeedQuits++
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
		s.ledger.Observe(obsAt-s.cfg.Warmup, s.dlCount, s.seedCount)
	}
	s.now = tNext
}

// integrate applies the last advance's dt to the peer at pos unless it has
// already done so: each downloading leg progresses at the rate the last
// rate pass gave it, and a downloading peer's clocks tick. These are the
// operations, on the same operands, of a sweep over every peer inside
// advance; only the moment they run moves.
func (s *sim) integrate(pos int) {
	if s.epochs[pos] == s.epoch {
		return
	}
	s.epochs[pos] = s.epoch
	if s.dt <= 0 {
		return
	}
	anyDl := false
	legs := s.active(pos)
	for i := range legs {
		if l := &legs[i]; l.state == legDownloading {
			l.progress(s.dt)
			anyDl = true
		}
	}
	if anyDl {
		s.tick(pos, s.dt)
	}
}

// progress drains dt of downloading at the leg's current rate.
func (l *leg) progress(dt float64) {
	l.remaining -= l.rate * dt
	if l.remaining < 0 {
		l.remaining = 0
	}
}

// tick runs a downloading peer's clocks for dt: download time, and the
// abort budget and the CMFSD virtual-seed accounting when faults or the
// Adapt controller read them.
func (s *sim) tick(pos int, dt float64) {
	s.dlTime[pos] += dt
	if s.plan == nil && s.cfg.Adapt == nil {
		return
	}
	p := &s.peers[pos]
	p.abortBudget -= dt
	if vu := s.vu[pos]; vu > 0 {
		p.virtUp += vu * dt
		p.vsQuitBudget -= dt
	}
	p.virtDown += p.virtDownRate * dt
}

// completeLeg handles a finished file download in leg slot sl.
func (s *sim) completeLeg(pos, sl int) {
	l := &s.legs[pos*s.w+sl]
	l.remaining = 0
	s.finished[pos]++
	s.dlCount--
	if s.cfg.Scheme == scheme.SimCMFSD && s.finished[pos] < s.class[pos] {
		s.nextFile(pos)
	} else {
		// Seed the file, or under CMFSD, after the last file, as a real
		// seed. A sequential peer starts its next file only after this
		// seeding phase (download, seed, move on).
		l.state = legSeeding
		s.seedCount++
		s.timers.push(s.now+s.rng.Exp(s.cfg.Gamma), int32(pos), int32(sl))
		s.setAddend(pos, sl)
	}
	s.setUploads(pos)
}

// nextFile moves a sequential peer's cursor to its next file, which starts
// downloading.
func (s *sim) nextFile(pos int) {
	s.cursor[pos]++
	s.legs[pos] = leg{remaining: 1, torrent: s.files[pos*s.cfg.K+int(s.cursor[pos])], state: legDownloading}
	s.dlCount++
	s.setAddend(pos, 0)
}

// afterLegDeparture resumes a sequential peer or retires one whose legs
// are all done.
func (s *sim) afterLegDeparture(pos int) {
	if s.cfg.Scheme == scheme.SimMTSD && s.cursor[pos]+1 < s.class[pos] {
		s.nextFile(pos)
		return
	}
	for _, l := range s.active(pos) {
		if l.state != legDone {
			return
		}
	}
	s.departPeer(pos)
}

// departPeer records the statistics of the peer at pos and swap-removes it.
func (s *sim) departPeer(pos int) {
	// Population counters and pending seed timers for whatever the peer
	// leaves behind (an abort can retire seeding legs mid-flight; a fired
	// departure timer was already popped, so remove is a no-op for it).
	s.touchPeer(pos)
	for sl, l := range s.active(pos) {
		switch l.state {
		case legDownloading:
			s.dlCount--
		case legSeeding:
			s.seedCount--
			s.timers.remove(int32(pos), int32(sl))
		}
	}
	if p := &s.peers[pos]; p.counted {
		// An aborted user started every leg not still waiting: all of them
		// under the concurrent schemes, those up to the cursor otherwise.
		class, files := int(s.class[pos]), int(s.class[pos])
		if p.aborted {
			files = int(s.cursor[pos]) + len(s.active(pos))
		}
		s.ledger.Depart(replica.Departure{
			Class: class, BwClass: p.bwClass,
			Online: s.now - p.arrivalAt, Download: s.dlTime[pos],
			Files: files, Aborted: p.aborted,
			// Every multi-file CMFSD peer's ρ counts, a cheater's pinned 1 too.
			Rho: s.rho[pos], CountRho: s.cfg.Scheme == scheme.SimCMFSD && class > 1,
		})
	}
	// Swap-remove: the last position moves into pos in every column; its
	// timer keys decreased, so its pending timers re-sift in the heap.
	last := len(s.peers) - 1
	s.peers = swapOut(s.peers, pos, 1)
	s.class = swapOut(s.class, pos, 1)
	s.group = swapOut(s.group, pos, 1)
	s.finished = swapOut(s.finished, pos, 1)
	s.cursor = swapOut(s.cursor, pos, 1)
	s.mu = swapOut(s.mu, pos, 1)
	s.weight = swapOut(s.weight, pos, 1)
	s.rho = swapOut(s.rho, pos, 1)
	s.tft = swapOut(s.tft, pos, 1)
	s.vu = swapOut(s.vu, pos, 1)
	s.vsQuit = swapOut(s.vsQuit, pos, 1)
	s.epochs = swapOut(s.epochs, pos, 1)
	s.dlTime = swapOut(s.dlTime, pos, 1)
	s.legs = swapOut(s.legs, pos, s.w)
	s.files = swapOut(s.files, pos, s.cfg.K)
	s.timers.swapOut(int32(pos), int32(last))
	for t := range len(s.wAdd) / s.capPos {
		i, j := t*s.capPos+pos, t*s.capPos+last
		s.wAdd[i], s.cAdd[i] = s.wAdd[j], s.cAdd[j]
		s.wAdd[j], s.cAdd[j] = 0, 0
	}
	if pos != last {
		s.touchPeer(pos)
	}
}

// adaptTick runs the Adapt controller on every eligible peer. It reads
// and resets the virtual-seed accumulators and changes ρ, so every peer
// integrates first.
func (s *sim) adaptTick() {
	period := s.cfg.Adapt.Period
	for pos := range s.peers {
		s.integrate(pos)
		p := &s.peers[pos]
		if p.ctrl != nil && s.legs[pos].state != legSeeding && s.finished[pos] >= 1 && s.class[pos] > 1 {
			delta := (p.virtUp - p.virtDown) / period
			s.rho[pos] = p.ctrl.Observe(delta)
			s.setUploads(pos)
		}
		p.virtUp, p.virtDown = 0, 0
	}
}

// reach bounds the completion times that can still beat tNext: a leg with
// remaining > reach·rate completes at now + remaining/rate ≥ tNext, so the
// rate pass skips its division. The pass recomputes it when a completion
// lowers tNext; a stale, larger reach only divides more. Each rounding below errs by at most a
// factor 1 ± 2⁻⁵³, which the 1 + 2⁻²⁰ slack covers: remaining > reach·rate
// gives remaining/rate > tNext − now even after rounding, and now plus a
// quantity past tNext − now rounds to tNext or above.
func reach(tNext, now float64) float64 { return (tNext - now) * (1 + 0x1p-20) }
