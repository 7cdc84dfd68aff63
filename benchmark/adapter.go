package main

// adapter.go holds every call the benchmark makes into mfdl/internal/...;
// no other file of this package imports an internal package (the smoke
// test enforces it). The surface is restricted to what ROADMAP keeps: none
// of the Deprecated: direct fields, not runner.CacheStats or
// diskcache.Stats, not the swarm.Scheme/eventsim.Scheme aliases — so the
// deletions queued under "one store, one option spelling" cannot break the
// benchmark they will be judged by. When an internal signature changes,
// this is the only file to patch.

import (
	"bytes"
	"context"
	"net/http"
	"time"

	"mfdl/internal/cmfsd"
	"mfdl/internal/correlation"
	"mfdl/internal/eventsim"
	"mfdl/internal/experiments"
	"mfdl/internal/fabric"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/numeric/ode"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/rng"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
	"mfdl/internal/swarm"
)

// Opaque handles: the harness passes these around but only this file looks
// inside them.
type (
	registry    = obs.Registry
	snapshot    = obs.Snapshot
	jobSpec     = runner.JobSpec
	solveKey    = runner.Key
	cellValue   = runner.CellValue
	solveCache  = runner.Cache
	solveStore  = diskcache.Store
	ckptStore   = diskcache.CheckpointStore
	sampleStore = diskcache.SampleStore
	ckptEntry   = diskcache.Entry
	simCell     = sim.JobCell
	aggregate   = replica.Agg
	sample      = replica.Sample
	coordinator = fabric.Coordinator
	rates       = fluid.Params
	fluidResult = experiments.SweepResult
	fluidSolve  = metrics.SchemeResult
)

// Parameter sets of the paper (Section 4) and of the repository's
// simulator validation (E9).
var (
	paperRates = fluid.PaperParams
	simRates   = experiments.DefaultSimSettings.Params
)

const (
	paperK     = 10
	simK       = 10
	simHorizon = 4000 // experiments.DefaultSimSettings.Horizon
	onlineKey  = replica.OnlinePerFile
)

// ---- obs ----

func newRegistry() *registry { return obs.New() }

func counterValue(reg *registry, name string) float64 {
	return float64(reg.Counter(name).Value())
}

// newWorkerRegistry wires a private registry and span collector the way
// `sweepd serve -local-workers` does for each in-process worker.
func newWorkerRegistry(name string) (*registry, *obs.SpanCollector) {
	reg := obs.New()
	reg.SetSpanIdentity(1, obs.L("worker", name))
	col := obs.NewSpanCollector(0)
	reg.SetSpanSink(col)
	return reg, col
}

func takeSnapshot(reg *registry) snapshot          { return reg.Snapshot() }
func encodeSnapshot(s snapshot) ([]byte, error)    { return obs.EncodeSnapshot(s) }
func decodeSnapshot(data []byte) (snapshot, error) { return obs.DecodeSnapshot(data) }
func mergeSnapshot(into *snapshot, from snapshot, source string) error {
	return into.Merge(from, obs.L("worker", source))
}

// ---- fluid sweeps ----

type sweepDim struct {
	Name   string
	Values []float64
}

// fluidSweep is one experiments.Sweep call, built and validated in set-up.
type fluidSweep struct {
	spec experiments.SweepSpec
	job  jobSpec
}

func newFluidSweep(schemeName string, dims []sweepDim, cacheDir string, workers int, reg *registry) (*fluidSweep, error) {
	sc, err := scheme.Parse(schemeName)
	if err != nil {
		return nil, err
	}
	rd := make([]runner.Dim, len(dims))
	for i, d := range dims {
		rd[i] = runner.Dim{Name: d.Name, Values: d.Values}
	}
	grid, err := runner.NewGrid(rd...)
	if err != nil {
		return nil, err
	}
	spec := experiments.SweepSpec{
		Config:   experiments.PaperConfig,
		P:        0.9,
		Scheme:   sc,
		Grid:     grid,
		CacheDir: cacheDir,
		Options:  experiments.Options{Workers: workers, Obs: reg},
	}
	if err := spec.Config.Validate(); err != nil {
		return nil, err
	}
	job := spec.JobSpec()
	if err := job.Validate(); err != nil {
		return nil, err
	}
	return &fluidSweep{spec: spec, job: job}, nil
}

func (s *fluidSweep) size() int { return s.spec.Grid.Size() }

func (s *fluidSweep) run(ctx context.Context) (*fluidResult, error) {
	return experiments.Sweep(ctx, s.spec)
}

// renderCells renders cells the way the sweep CLI prints them.
func (s *fluidSweep) renderCells(cells []cellValue) ([]byte, error) {
	res := &experiments.SweepResult{Spec: s.spec, Cells: cells}
	var buf bytes.Buffer
	err := res.Table().Write(&buf, "tsv")
	return buf.Bytes(), err
}

// cellKey returns the solve key of grid cell i and the swept values.
func (s *fluidSweep) cellKey(i int) (solveKey, []float64, error) {
	p := s.spec.Grid.Point(i)
	key, err := s.job.CellKey(p)
	return key, p.Values(), err
}

func keyFingerprint(k solveKey) string { return k.Fingerprint() }

func solveOnline(r *fluidSolve) float64   { return r.AvgOnlinePerFile() }
func solveDownload(r *fluidSolve) float64 { return r.AvgDownloadPerFile() }

// solveDirect evaluates one key without any cache, as runner.Cache does on
// a miss.
func solveDirect(k solveKey) (*fluidSolve, error) {
	corr, err := correlation.New(k.K, k.P, k.Lambda0)
	if err != nil {
		return nil, err
	}
	return scheme.Evaluate(k.Scheme, k.Params, corr, scheme.Options{Rho: k.Rho, Theta: k.Theta})
}

// fluidOnline is the fluid prediction of average online time per file.
func fluidOnline(schemeName string, r rates, k int, p, lambda0, rho float64) (float64, error) {
	sc, err := scheme.Parse(schemeName)
	if err != nil {
		return 0, err
	}
	res, err := solveDirect(solveKey{Scheme: sc, Params: r, K: k, P: p, Lambda0: lambda0, Rho: rho})
	if err != nil {
		return 0, err
	}
	return res.AvgOnlinePerFile(), nil
}

// cmfsdRelaxation relaxes the CMFSD model (Eq. 5) with fixed-step RK4
// through a counting right-hand side and returns the number of RHS
// evaluations.
func cmfsdRelaxation(k solveKey) (rhsEvals int, err error) {
	corr, err := correlation.New(k.K, k.P, k.Lambda0)
	if err != nil {
		return 0, err
	}
	m, err := cmfsd.New(k.Params, corr, k.Rho)
	if err != nil {
		return 0, err
	}
	counting := func(t float64, x, dst []float64) {
		rhsEvals++
		m.RHS(t, x, dst)
	}
	_, err = ode.SteadyState(ode.NewRK4(m.Dim()), counting, m.InitialState(),
		ode.SteadyStateOptions{Step: 1, Tol: 1e-11, MaxTime: 5e6})
	return rhsEvals, err
}

// ---- solve cache and its disk tier ----

func openSolveStore(dir string) (*solveStore, error) { return diskcache.Open(dir) }
func storeGet(s *solveStore, fp string) (*fluidSolve, bool) {
	return s.Get(fp)
}
func storePut(s *solveStore, fp string, res *fluidSolve) error { return s.Put(fp, res) }

func newMemCache() *solveCache { return runner.NewCache() }
func newDiskCache(s *solveStore, reg *registry) *solveCache {
	return runner.NewDiskCache(s).WithObs(reg)
}
func cacheEvaluate(c *solveCache, k solveKey) (*fluidSolve, error) { return c.Evaluate(k) }

func encodeCell(v cellValue) ([]byte, error)    { return runner.EncodeCellValue(v) }
func decodeCell(data []byte) (cellValue, error) { return runner.DecodeCellValue(data) }

// ---- runner pool ----

// runPool fans job out over n indexed cells on the runner pool.
func runPool(ctx context.Context, n, workers int, job func(ctx context.Context, cell int) ([]byte, error)) ([][]byte, error) {
	idx := make([]float64, n)
	for i := range idx {
		idx[i] = float64(i)
	}
	g, err := runner.NewGrid(runner.Dim{Name: "cell", Values: idx})
	if err != nil {
		return nil, err
	}
	return runner.Run(ctx, g, func(ctx context.Context, p runner.Point, _ *rng.Source) ([]byte, error) {
		return job(ctx, p.Index)
	}, runner.Options{Workers: workers})
}

// ---- job specs ----

func specCanonical(s jobSpec) ([]byte, error) { return s.Canonical() }
func specValidate(s jobSpec) error            { return s.Validate() }
func specFingerprint(s jobSpec) string        { return s.Fingerprint() }
func specParse(data []byte) (jobSpec, error)  { return runner.ParseJobSpec(data) }
func specCells(s jobSpec) (int, error)        { return s.CellCount() }

// specSampleRef calls the kind's SampleRef, which the coordinator runs
// under its lock for every completion.
func specSampleRef(s jobSpec, cell int) (string, uint64, bool) {
	kind, ok := runner.LookupJobKind(s.Kind)
	if !ok || kind.SampleRef == nil {
		return "", 0, false
	}
	return kind.SampleRef(s, cell)
}

func evaluateJobCell(ctx context.Context, s jobSpec, samples *sampleStore, cell int) ([]byte, error) {
	return runner.EvaluateJobCell(ctx, s, runner.JobEnv{Samples: samples}, cell)
}

func runJobPayloads(ctx context.Context, s jobSpec, samples *sampleStore, reg *registry, workers int) ([][]byte, error) {
	return runner.RunJobPayloads(ctx, s, runner.JobEnv{Samples: samples, Obs: reg},
		runner.Options{Workers: workers, Obs: reg})
}

// ---- simulators ----

type flowConfig = eventsim.Config
type chunkConfig = swarm.Config

// newFlowConfig is a flow-level configuration at the given operating point.
func newFlowConfig(schemeName string, r rates, k int, p, rho, horizon, warmup float64) (flowConfig, error) {
	sc, err := scheme.ParseSim(schemeName)
	if err != nil {
		return flowConfig{}, err
	}
	return flowConfig{
		Params: r, K: k, Lambda0: 1, P: p, Scheme: sc, Rho: rho,
		Horizon: horizon, Warmup: warmup,
	}, nil
}

// newChunkConfig is swarm.DefaultConfig at the given arrival rate and span.
func newChunkConfig(schemeName string, rho, lambda0 float64, horizon, warmup int) (chunkConfig, error) {
	sc, err := scheme.ParseSim(schemeName)
	if err != nil {
		return chunkConfig{}, err
	}
	cfg := swarm.DefaultConfig
	cfg.Scheme, cfg.Rho, cfg.Lambda0 = sc, rho, lambda0
	cfg.Horizon, cfg.Warmup = horizon, warmup
	cfg.Seed = 0
	return cfg, nil
}

func flowCell(cfg flowConfig) simCell {
	return simCell{Scheme: cfg.Scheme, Config: sim.Config{Flow: &cfg}}
}
func chunkCell(cfg chunkConfig) simCell {
	return simCell{Scheme: cfg.Scheme, Config: sim.Config{Chunk: &cfg}}
}

// simRun is what the harness needs from one direct simulator run.
type simRun struct {
	Sample                     sample
	Completed                  int
	MeanDownloaders, MeanSeeds float64
	Chunks                     int
}

func runFlow(cfg flowConfig, seed uint64) (simRun, error) {
	cfg.Seed = seed
	res, err := eventsim.Run(cfg)
	if err != nil {
		return simRun{}, err
	}
	return simRun{Sample: res.Sample(), Completed: res.CompletedUsers,
		MeanDownloaders: res.MeanDownloaders, MeanSeeds: res.MeanSeeds}, nil
}

func runChunk(cfg chunkConfig, seed uint64) (simRun, error) {
	cfg.Seed = seed
	res, err := swarm.Run(cfg)
	if err != nil {
		return simRun{}, err
	}
	return simRun{Sample: res.Sample(), Completed: res.CompletedUsers,
		MeanDownloaders: res.MeanDownloaders, MeanSeeds: res.MeanSeeds,
		Chunks: res.ChunksTransferred}, nil
}

// ---- sim-replica jobs ----

func newSimJob(cells []simCell, seed uint64, replicas int) (jobSpec, error) {
	return sim.NewJobSpec(cells, seed, replicas)
}

func runSimJob(ctx context.Context, s jobSpec, samples *sampleStore, reg *registry, workers int) ([]aggregate, error) {
	return sim.RunJob(ctx, s, runner.JobEnv{Samples: samples, Obs: reg},
		runner.Options{Workers: workers, Obs: reg})
}

func reduceJob(s jobSpec, payloads [][]byte) ([]aggregate, error) { return sim.ReduceJob(s, payloads) }

func replicaSeed(base uint64, cell, rep int) uint64 { return replica.SeedOf(base, cell, rep) }
func encodeSample(s sample) ([]byte, error)         { return replica.EncodeSample(s) }
func decodeSample(data []byte) (sample, error)      { return replica.DecodeSample(data) }
func reduceSamples(s []sample) aggregate            { return replica.Reduce(s) }
func aggMean(a aggregate, key string) float64       { return a.Mean(key) }
func aggCI95(a aggregate, key string) float64       { return a.CI95(key) }
func aggCompleted(a aggregate) float64              { return a.Count(replica.Completed) }

// ---- checkpoint and sample stores ----

func openCheckpoint(dir string) (*ckptStore, error) { return diskcache.OpenCheckpoint(dir) }

// openSamples opens a sample store reporting to reg (nil = unobserved), as
// sweepd serve wires it.
func openSamples(dir string, reg *registry) (*sampleStore, error) {
	s, err := diskcache.OpenSamples(dir)
	if err != nil {
		return nil, err
	}
	return s.WithObs(reg), nil
}

func newEntry(fp string, cell int, payload []byte) ckptEntry {
	return ckptEntry{Schema: diskcache.CheckpointSchemaVersion, Key: fp, Cell: cell, Payload: payload}
}
func entryEncode(e ckptEntry) ([]byte, error)      { return e.Encode() }
func entryDecode(data []byte) (ckptEntry, error)   { return diskcache.DecodeEntry(data) }
func ckptPutEntry(s *ckptStore, e ckptEntry) error { return s.PutEntry(e) }
func ckptGet(s *ckptStore, fp string, cell int) ([]byte, bool) {
	return s.Get(fp, cell)
}
func samplesPut(s *sampleStore, key string, seed uint64, payload []byte) error {
	return s.Put(key, seed, payload)
}
func samplesGet(s *sampleStore, key string, seed uint64) ([]byte, bool) {
	return s.Get(key, seed)
}

// ---- fabric ----

// newCoordinator builds a coordinator with CoordinatorOptions at the
// sweepd CLI defaults (LeaseCells 8, LeaseTTL 30 s, no adaptive target).
func newCoordinator(s jobSpec, ckpt *ckptStore, samples *sampleStore, reg *registry) (*coordinator, error) {
	return fabric.NewCoordinator(s, ckpt, fabric.CoordinatorOptions{
		LeaseCells: 8, LeaseTTL: 30 * time.Second, Samples: samples, Obs: reg,
	})
}

func coordHandler(c *coordinator) http.Handler                { return c.Handler() }
func coordWait(ctx context.Context, c *coordinator) error     { return c.Wait(ctx) }
func coordComplete(c *coordinator, e ckptEntry) (bool, error) { return c.Complete(e) }
func coordPayloads(ctx context.Context, c *coordinator) ([][]byte, error) {
	return c.Payloads(ctx)
}

// fabricWorker carries what one `sweepd serve -local-workers` worker gets:
// a name, a private registry and span collector, the shared sample store,
// Parallelism 1 and the default 1 s heartbeat.
type fabricWorker struct {
	Name    string
	Reg     *registry
	Spans   *obs.SpanCollector
	Samples *sampleStore
	Client  *http.Client
	OnLease func(id string, cells []int)
	OnCell  func(cell int)
}

func fabricWork(ctx context.Context, url string, w fabricWorker) error {
	return fabric.Work(ctx, url, fabric.WorkerOptions{
		Name: w.Name, Parallelism: 1, Client: w.Client,
		Obs: w.Reg, Spans: w.Spans, Samples: w.Samples,
		OnLease: w.OnLease, OnCell: w.OnCell,
	})
}
