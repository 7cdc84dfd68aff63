// Command sweepd runs a parameter sweep as a distributed job: one
// coordinator process partitions the grid into cell leases, and any number
// of worker processes — on this machine or others — pull leases over HTTP,
// solve cells, and post results back. The final table is byte-identical to
// the same experiment run locally, at any worker count, even across worker
// crashes: expired leases are re-issued (work stealing) and completed
// cells persist in the coordinator's checkpoint store, so a restarted
// coordinator resumes instead of recomputing.
//
// Usage — two terminals:
//
//	sweepd serve -addr :8700 -dim p,rho -steps 9,10 -scheme CMFSD \
//	    -checkpoint-dir /tmp/sweepd
//	sweepd work -join http://localhost:8700 -parallel 4
//
// Or a single machine, one process:
//
//	sweepd serve -addr 127.0.0.1:0 -local-workers 8 -dim rho -steps 10
//
// Every worker pushes periodic telemetry — a heartbeat, a mergeable
// metrics snapshot and its completed trace spans — so the coordinator
// serves a fleet-merged Prometheus exposition on /metrics and a
// per-worker liveness/straggler view on GET /v1/fleet. Watch it live
// from a third terminal:
//
//	sweepd top -join http://localhost:8700
//
// `serve -fleet-out fleet.json` records the final fleet view,
// `-progress 5s` prints a fleet line on stderr while running, and a
// serve-side -trace-out file interleaves spans from every worker
// process into one Chrome trace. Telemetry is fire-and-forget and
// strictly off the completion path: results are byte-identical with it
// on or off.
//
// Two job kinds can be served (-job):
//
//	fluid        the default: a fluid-model steady-state sweep over the
//	             same grid and model flags as `sweep` (-dim, -from, -to,
//	             -steps, -scheme, -k, -mu, -eta, -gamma, -lambda0, -p,
//	             -rho, -theta).
//	simvalidate  the fluid-vs-simulation validation (mfdl's simvalidate):
//	             every scheme at every correlation in -ps, with -replicas
//	             independently seeded simulation replicas per row. The
//	             cells are (row × replica) pairs; the finished table is
//	             byte-identical to a local `mfdl simvalidate` at the same
//	             seed and replica count.
//
// Simulation cells persist in a keyed sample store (-sample-dir): a later
// serve with a larger -replicas replays every stored sample and only
// simulates the new ones. With -ci-target the serve runs multiple rounds,
// doubling the replica count (up to -replicas-max) until every row's 95%
// confidence half-width of -ci-metric reaches the target; each round is a
// fresh job at the same address, so workers started with `work -loop`
// keep pulling rounds until the coordinator exits.
//
// -lease-target sizes leases adaptively: the coordinator tracks each
// worker's observed seconds per cell and grants batches that take roughly
// the target wall-time, so slow workers hold fewer cells hostage.
//
// `serve` prints the finished table on stdout and exits. With -addr-file
// the actual listen address (useful with port 0) is written to a file for
// scripts to pick up. `work` needs only -join; it fetches the job
// description from the coordinator and refuses kinds its build does not
// register.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"flag"

	"mfdl/internal/experiments"
	"mfdl/internal/fabric"
	"mfdl/internal/fabric/chaos"
	"mfdl/internal/fluid"
	"mfdl/internal/gridflag"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
	"mfdl/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweepd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: sweepd serve|work [flags] (run with -h for details)")
	}
	switch args[0] {
	case "serve":
		return serve(args[1:])
	case "work":
		return work(args[1:])
	case "top":
		return top(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (want serve, work, or top)", args[0])
	}
}

// formats lists the table formats the -format flag accepts.
var formats = map[string]bool{
	"": true, "ascii": true, "csv": true, "tsv": true, "markdown": true, "md": true,
}

// parseFloats parses a comma-separated list of finite floats.
func parseFloats(name, s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("-%s: value %v is not finite", name, v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: empty list", name)
	}
	return out, nil
}

// parseWindows parses comma-separated start-end duration pairs
// ("2s-4s,30s-35s") into chaos blackout windows.
func parseWindows(s string) ([]chaos.Window, error) {
	if s == "" {
		return nil, nil
	}
	var out []chaos.Window
	for _, part := range strings.Split(s, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("-chaos-blackout: window %q is not start-end", part)
		}
		start, err := time.ParseDuration(a)
		if err != nil {
			return nil, fmt.Errorf("-chaos-blackout: %w", err)
		}
		end, err := time.ParseDuration(b)
		if err != nil {
			return nil, fmt.Errorf("-chaos-blackout: %w", err)
		}
		out = append(out, chaos.Window{Start: start, End: end})
	}
	return out, nil
}

func serve(args []string) error {
	fs := flag.NewFlagSet("sweepd serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8700", "coordinator listen address (port 0 picks a free port)")
		addrFile = fs.String("addr-file", "", "write the actual listen address to this file (for scripts using port 0)")
		job      = fs.String("job", "fluid", "job kind to serve: fluid (steady-state sweep) or simvalidate (fluid-vs-simulation)")
		dim      = fs.String("dim", "p", "fluid: swept dimensions (comma-separated): p, rho, k, mu, gamma, eta, lambda0, theta")
		from     = fs.String("from", "0.05", "fluid: sweep start, one value or one per dimension")
		to       = fs.String("to", "1", "fluid: sweep end, one value or one per dimension")
		steps    = fs.String("steps", "10", "fluid: sweep intervals, one value or one per dimension")
		schemeF  = fs.String("scheme", "CMFSD", "fluid: scheme: MTCD, MTSD, MFCD, CMFSD")
		k        = fs.Int("k", 10, "number of files K")
		mu       = fs.Float64("mu", 0.02, "upload bandwidth μ")
		eta      = fs.Float64("eta", 0.5, "sharing efficiency η")
		gamma    = fs.Float64("gamma", 0.05, "seed departure rate γ")
		lambda0  = fs.Float64("lambda0", 1, "visiting rate λ₀")
		p        = fs.Float64("p", 0.9, "fluid: file correlation p")
		rho      = fs.Float64("rho", 0, "fluid: CMFSD allocation ratio ρ")
		theta    = fs.Float64("theta", 0, "fluid: downloader abort rate θ (0 = paper's churn-free model)")
		// Simulation flags (-job simvalidate).
		ps       = fs.String("ps", "0.5,0.9", "simvalidate: comma-separated file correlations, one scheme matrix per value")
		horizon  = fs.Float64("horizon", 4000, "simvalidate: simulated horizon")
		warmup   = fs.Float64("warmup", 800, "simvalidate: measurement warmup")
		seed     = fs.Uint64("seed", 1, "simvalidate: base of the replica seed derivation")
		replicas = fs.Int("replicas", 1, "simvalidate: independently seeded replicas per row (>= 1)")
		ciTarget = fs.Float64("ci-target", 0, "simvalidate: run growing rounds until every row's 95% CI half-width of -ci-metric reaches this (0 = one round at -replicas)")
		ciMetric = fs.String("ci-metric", replica.OnlinePerFile, "simvalidate: stopping metric for -ci-target")
		replMax  = fs.Int("replicas-max", 64, "simvalidate: replica growth bound per serve under -ci-target")
		smplDir  = fs.String("sample-dir", "", "simvalidate: keyed replica-sample store; later serves with more replicas replay stored samples (empty = private temp dir, no reuse)")
		// Fabric flags.
		ckptDir     = fs.String("checkpoint-dir", "", "checkpoint store for completed cells; a restarted coordinator resumes from it (empty = private temp dir, no resume)")
		leaseCells  = fs.Int("lease-cells", 8, "cells granted per lease (the adaptive upper bound with -lease-target)")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "lease exclusivity window; a worker silent for longer forfeits its cells")
		leaseTarget = fs.Duration("lease-target", 0, "size each worker's leases to roughly this wall-time from its observed cell pace (0 = fixed -lease-cells batches)")
		localW      = fs.Int("local-workers", 0, "also run this many in-process workers (0 = rely on `sweepd work` processes)")
		format      = fs.String("format", "ascii", "output format: ascii, csv, tsv, or markdown")
		stats       = fs.Bool("stats", false, "print fabric progress counters on stderr")
		fleetOut    = fs.String("fleet-out", "", "write the final fleet view (per-worker liveness, rates, stragglers) as JSON to this file")
		progress    = fs.Duration("progress", 0, "print a fleet progress line (workers, cells/sec, stragglers) on stderr at this interval (0 = off)")
		// Chaos flags: deterministic server-side fault injection for soaks.
		chaosSeed  = fs.Uint64("chaos-seed", 0, "chaos: fault-plan seed; the same seed replays the identical fault schedule")
		chaos5xx   = fs.Float64("chaos-5xx", 0, "chaos: probability in [0,1) of substituting a 503 for a served response (0 = off)")
		chaosDelay = fs.Duration("chaos-delay-max", 0, "chaos: delay each served request by a deterministic uniform draw from [0, this) (0 = off)")
		chaosBlack = fs.String("chaos-blackout", "", "chaos: comma-separated start-end elapsed-time windows (e.g. 2s-4s,30s-35s) during which every request is rejected with 503")
	)
	var ofl obs.Flags
	ofl.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if !formats[*format] {
		return fmt.Errorf("unknown format %q (want ascii, csv, tsv, or markdown)", *format)
	}
	if *leaseTarget < 0 {
		return fmt.Errorf("-lease-target must be >= 0, got %v", *leaseTarget)
	}
	reg, finishObs, err := ofl.Setup(*stats)
	if err != nil {
		return err
	}
	// Coordinator-side spans carry the serve process's real pid, so a
	// -trace-out file interleaves cleanly with the worker spans shipped
	// in over telemetry (each tagged with its own origin pid).
	reg.SetSpanIdentity(os.Getpid())
	windows, err := parseWindows(*chaosBlack)
	if err != nil {
		return err
	}
	chaosPlan, err := chaos.NewPlan(chaos.Config{
		Seed: *chaosSeed, Error5xxProb: *chaos5xx,
		DelayMax: *chaosDelay, BlackoutWindows: windows,
	}, reg)
	if err != nil {
		return err
	}
	params := fluid.Params{Mu: *mu, Eta: *eta, Gamma: *gamma}
	copts := fabric.CoordinatorOptions{
		LeaseCells: *leaseCells, LeaseTTL: *leaseTTL,
		TargetLeaseSeconds: leaseTarget.Seconds(), Obs: reg,
	}
	sh := &serveHost{
		addr: *addr, addrFile: *addrFile, ckptDir: *ckptDir,
		localWorkers: *localW, format: *format, stats: *stats, reg: reg,
		fleetOut: *fleetOut, progress: *progress, chaos: chaosPlan,
	}
	var serveErr error
	switch *job {
	case "fluid":
		grid, err := gridflag.Grid(*dim, *from, *to, *steps)
		if err != nil {
			return err
		}
		sc, err := scheme.Parse(*schemeF)
		if err != nil {
			return err
		}
		spec := experiments.SweepSpec{
			Config: experiments.Config{
				Params: params, K: *k, Lambda0: *lambda0,
			},
			P: *p, Rho: *rho, Theta: *theta,
			Scheme:  sc,
			Grid:    grid,
			Options: experiments.Options{Obs: reg},
		}
		if err := spec.Config.Validate(); err != nil {
			return err
		}
		serveErr = sh.serveFluid(spec, copts)
	case "simvalidate":
		if *replicas < 1 {
			return fmt.Errorf("-replicas must be >= 1, got %d", *replicas)
		}
		if math.IsNaN(*ciTarget) || math.IsInf(*ciTarget, 0) || *ciTarget < 0 {
			return fmt.Errorf("-ci-target must be finite and >= 0, got %v", *ciTarget)
		}
		if *replMax < 1 {
			return fmt.Errorf("-replicas-max must be >= 1, got %d", *replMax)
		}
		psList, err := parseFloats("ps", *ps)
		if err != nil {
			return err
		}
		set := experiments.SimSettings{
			Params: params, K: *k, Lambda0: *lambda0,
			Horizon: *horizon, Warmup: *warmup,
			Options: experiments.Options{Seed: *seed, Replicas: *replicas, Obs: reg},
		}
		serveErr = sh.serveSimValidate(set, psList, *smplDir, simStop{
			target: *ciTarget, metric: *ciMetric, maxReplicas: *replMax,
		}, copts)
	default:
		return fmt.Errorf("unknown -job %q (want fluid or simvalidate)", *job)
	}
	if serveErr != nil {
		return serveErr
	}
	return finishObs()
}

// serveHost is the per-invocation serving machinery shared by both job
// kinds: the listener, the swappable handler (sequential-stopping rounds
// replace the coordinator under one address), the checkpoint store, and
// the in-process workers.
type serveHost struct {
	addr, addrFile string
	ckptDir        string
	localWorkers   int
	format         string
	stats          bool
	reg            *obs.Registry
	fleetOut       string
	progress       time.Duration
	chaos          *chaos.Plan

	mu      sync.Mutex
	handler http.Handler
	coord   *fabric.Coordinator
}

// ServeHTTP dispatches to the current round's coordinator.
func (sh *serveHost) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sh.mu.Lock()
	h := sh.handler
	sh.mu.Unlock()
	if h == nil {
		http.Error(w, "no job yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// swap installs the next round's coordinator.
func (sh *serveHost) swap(coord *fabric.Coordinator) {
	sh.mu.Lock()
	sh.coord = coord
	sh.handler = coord.Handler()
	sh.mu.Unlock()
}

// currentCoord returns the coordinator of the round in progress, if any.
func (sh *serveHost) currentCoord() *fabric.Coordinator {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.coord
}

// startProgress emits the periodic fleet line on stderr until ctx ends.
func (sh *serveHost) startProgress(ctx context.Context) {
	if sh.progress <= 0 {
		return
	}
	go func() {
		t := time.NewTicker(sh.progress)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				coord := sh.currentCoord()
				if coord == nil {
					continue
				}
				f := coord.Fleet()
				var stragglers []string
				for _, w := range f.Workers {
					if w.Straggler {
						stragglers = append(stragglers, w.Worker)
					}
				}
				line := fmt.Sprintf("sweepd: fleet: %d/%d cells, %d workers (%d healthy, %d stale, %d lost), %.1f cells/s",
					f.Status.Done, f.Status.Total, len(f.Workers), f.Healthy, f.Stale, f.Lost, f.CellsPerSec)
				if len(stragglers) > 0 {
					line += ", stragglers: " + strings.Join(stragglers, ",")
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
	}()
}

// writeFleet writes the final fleet view as JSON to -fleet-out.
func (sh *serveHost) writeFleet() error {
	if sh.fleetOut == "" {
		return nil
	}
	coord := sh.currentCoord()
	if coord == nil {
		return nil
	}
	data, err := json.MarshalIndent(coord.Fleet(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(sh.fleetOut, append(data, '\n'), 0o644)
}

// openCheckpoint opens the configured checkpoint directory, or a private
// temp dir removed by cleanup.
func (sh *serveHost) openCheckpoint() (*diskcache.CheckpointStore, func(), error) {
	dir, cleanup := sh.ckptDir, func() {}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "sweepd-*")
		if err != nil {
			return nil, nil, err
		}
		dir, cleanup = tmp, func() { os.RemoveAll(tmp) }
	}
	store, err := diskcache.OpenCheckpoint(dir)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return store, cleanup, nil
}

// listen binds the address, writes -addr-file, and returns the server
// (already accepting, dispatching through the swappable handler) and its
// base URL.
func (sh *serveHost) listen() (*http.Server, string, error) {
	ln, err := net.Listen("tcp", sh.addr)
	if err != nil {
		return nil, "", err
	}
	if sh.addrFile != "" {
		if err := os.WriteFile(sh.addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return nil, "", err
		}
	}
	// Chaos middleware (a transparent no-op on a nil plan) wraps the
	// swappable handler so sequential-stopping rounds share one fault
	// schedule; the header timeout keeps a stalled client from pinning an
	// accept slot (per-request timeouts live inside the coordinator
	// handler itself).
	srv := &http.Server{
		Handler:           sh.chaos.Middleware(sh),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go srv.Serve(ln)
	return srv, "http://" + ln.Addr().String(), nil
}

// startWorkers launches the in-process workers for one round and returns
// their error channel (one send per worker; nil on normal completion).
//
// Each worker gets a private registry, exactly like a `sweepd work`
// process: its counters reach the fleet /metrics view through the
// telemetry merge, and its cell spans ride the telemetry envelope into
// the coordinator's trace sink. Sharing the coordinator's registry
// would make every push ship (and MergedSnapshot re-sum) the whole
// shared registry — coordinator counters plus every other worker's —
// inflating /metrics roughly (N+1)x.
func (sh *serveHost) startWorkers(ctx context.Context, url string, samples *diskcache.SampleStore) <-chan error {
	errs := make(chan error, sh.localWorkers)
	for i := 0; i < sh.localWorkers; i++ {
		name := fmt.Sprintf("local-%d", i)
		wreg := obs.New()
		wreg.SetSpanIdentity(os.Getpid(), obs.L("worker", name))
		col := obs.NewSpanCollector(0)
		wreg.SetSpanSink(col)
		go func() {
			errs <- fabric.Work(ctx, url, fabric.WorkerOptions{
				Name: name, Obs: wreg, Spans: col, Samples: samples,
			})
		}()
	}
	return errs
}

// printStats renders the fabric progress counters after the last round.
func (sh *serveHost) printStats(done, total int) {
	if !sh.stats {
		return
	}
	count := func(name string) uint64 { return sh.reg.Counter(name).Value() }
	fmt.Fprintf(os.Stderr, "sweepd: %d/%d cells done; leases granted %d, expired %d; completions %d (+%d duplicate, %d resumed)\n",
		done, total,
		count("fabric_leases_granted_total"),
		count("fabric_leases_expired_total"),
		count("fabric_cells_completed_total"),
		count("fabric_cells_duplicate_total"),
		count("fabric_cells_resumed_total"))
}

// serveFluid runs the classic single-round fluid sweep.
func (sh *serveHost) serveFluid(spec experiments.SweepSpec, copts fabric.CoordinatorOptions) error {
	store, cleanup, err := sh.openCheckpoint()
	if err != nil {
		return err
	}
	defer cleanup()
	coord, err := fabric.NewCoordinator(spec.JobSpec(), store, copts)
	if err != nil {
		return err
	}
	sh.swap(coord)
	srv, url, err := sh.listen()
	if err != nil {
		return err
	}
	defer srv.Close()
	st := coord.Status()
	fmt.Fprintf(os.Stderr, "sweepd: serving %d cells (%d resumed) on %s\n", st.Total, st.Done, url)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sh.startProgress(ctx)
	if err := sh.runRound(ctx, coord, url, nil); err != nil {
		return err
	}
	cells, err := coord.Result(ctx)
	if err != nil {
		return err
	}
	res := &experiments.SweepResult{Spec: spec, Cells: cells}
	if err := res.Table().Write(os.Stdout, sh.format); err != nil {
		return err
	}
	final := coord.Status()
	sh.printStats(final.Done, final.Total)
	return sh.writeFleet()
}

// simStop is the serve-level sequential-stopping rule.
type simStop struct {
	target      float64
	metric      string
	maxReplicas int
}

// serveSimValidate runs the simvalidate job, one round per replica count.
// Every round is a fresh coordinator (new spec, new fingerprint) behind
// the same address; the shared sample store carries the samples forward,
// so round n+1 pre-marks everything round n computed and only the new
// replicas are simulated — the distributed spelling of "R grows, never
// resamples".
func (sh *serveHost) serveSimValidate(set experiments.SimSettings, ps []float64, sampleDir string, stop simStop, copts fabric.CoordinatorOptions) error {
	sdir, cleanupS := sampleDir, func() {}
	if sdir == "" {
		tmp, err := os.MkdirTemp("", "sweepd-samples-*")
		if err != nil {
			return err
		}
		sdir, cleanupS = tmp, func() { os.RemoveAll(tmp) }
	}
	defer cleanupS()
	samples, err := diskcache.OpenSamples(sdir)
	if err != nil {
		return err
	}
	samples.WithObs(sh.reg)
	copts.Samples = samples
	store, cleanup, err := sh.openCheckpoint()
	if err != nil {
		return err
	}
	defer cleanup()
	srv, url, err := sh.listen()
	if err != nil {
		return err
	}
	defer srv.Close()
	ctx, sigStop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer sigStop()
	sh.startProgress(ctx)

	r := set.Options.Replicas
	if stop.target > 0 && r < 2 {
		r = 2 // a confidence interval needs at least two samples
	}
	maxR := stop.maxReplicas
	if maxR < r {
		maxR = r
	}
	var plan *experiments.SimValidatePlan
	var aggs []replica.Agg
	var lastStatus fabric.Status
	for round := 1; ; round++ {
		set.Options.Replicas = r
		plan, err = experiments.PlanSimValidate(set, ps)
		if err != nil {
			return err
		}
		coord, err := fabric.NewCoordinator(plan.Spec, store, copts)
		if err != nil {
			return err
		}
		sh.swap(coord)
		st := coord.Status()
		fmt.Fprintf(os.Stderr, "sweepd: round %d: serving %d cells (%d resumed, R=%d) on %s\n",
			round, st.Total, st.Done, r, url)
		if err := sh.runRound(ctx, coord, url, samples); err != nil {
			return err
		}
		payloads, err := coord.Payloads(ctx)
		if err != nil {
			return err
		}
		lastStatus = coord.Status()
		if aggs, err = sim.ReduceJob(plan.Spec, payloads); err != nil {
			return err
		}
		if stop.target <= 0 {
			break
		}
		worst := 0.0
		for _, agg := range aggs {
			if ci := agg.CI95(stop.metric); ci > worst {
				worst = ci
			}
		}
		if worst <= stop.target || r >= maxR {
			fmt.Fprintf(os.Stderr, "sweepd: round %d: max CI95(%s) = %g (target %g), stopping at R=%d\n",
				round, stop.metric, worst, stop.target, r)
			break
		}
		if r *= 2; r > maxR {
			r = maxR
		}
	}
	res, err := plan.Result(aggs)
	if err != nil {
		return err
	}
	if err := res.Table().Write(os.Stdout, sh.format); err != nil {
		return err
	}
	sh.printStats(lastStatus.Done, lastStatus.Total)
	if sh.stats {
		count := func(name string) uint64 { return sh.reg.Counter("samplestore_" + name + "_total").Value() }
		fmt.Fprintf(os.Stderr, "sweepd: sample store: %d hits / %d misses (%d stored, %d corrupt, %d evicted)\n",
			count("hits"), count("misses"), count("stores"), count("corrupt"), count("evicted"))
	}
	return sh.writeFleet()
}

// runRound runs the in-process workers against one coordinator until its
// job completes — by their hands or remote workers' — or a local worker
// fails, which aborts the round. It waits on the coordinator, not on the
// workers: one still sitting out an idle poll when the last cell lands is
// cancelled, and returns as soon as its farewell telemetry push is out.
func (sh *serveHost) runRound(ctx context.Context, coord *fabric.Coordinator, url string, samples *diskcache.SampleStore) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workerErrs := sh.startWorkers(wctx, url, samples)
	running := sh.localWorkers
	var err error
	for waiting := true; waiting; {
		select {
		case <-coord.Done():
			waiting = false
		case <-ctx.Done():
			err, waiting = ctx.Err(), false
		case werr := <-workerErrs:
			running--
			if werr != nil {
				err, waiting = werr, false
			}
		}
	}
	cancel()
	for ; running > 0; running-- {
		<-workerErrs
	}
	return err
}

func work(args []string) error {
	fs := flag.NewFlagSet("sweepd work", flag.ContinueOnError)
	var (
		join     = fs.String("join", "", "coordinator URL, e.g. http://host:8700 (required)")
		parallel = fs.Int("parallel", 1, "cells computed concurrently by this worker")
		name     = fs.String("name", "", "worker name reported to the coordinator (default worker-<pid>)")
		loop     = fs.Bool("loop", false, "keep pulling jobs as the coordinator swaps them (sequential-stopping rounds); exit cleanly when it shuts down")
		smplDir  = fs.String("sample-dir", "", "keyed replica-sample store: simulation cells replay stored samples and persist fresh ones (empty = off)")
		smplAge  = fs.Duration("sample-prune-age", 0, "evict stored samples unused for longer than this before working (0 = off; requires -sample-dir)")
		smplSize = fs.Int64("sample-prune-size", 0, "evict least-recently-used stored samples down to this many bytes before working (0 = off; requires -sample-dir)")
		outage   = fs.Duration("max-outage", 0, "ride out coordinator outages up to this long by parking with capped jittered backoff instead of failing (0 = fail once retries are exhausted)")
		stats    = fs.Bool("stats", false, "print this worker's cell count on stderr when done")
		beat     = fs.Duration("heartbeat", time.Second, "telemetry push interval: heartbeat, metrics snapshot and completed spans go to the coordinator this often (negative = off)")
		// Chaos flags: deterministic worker-side fault injection for soaks.
		chaosSeed    = fs.Uint64("chaos-seed", 0, "chaos: fault-plan seed; the same seed replays the identical fault schedule")
		chaosDrop    = fs.Float64("chaos-drop", 0, "chaos: probability in [0,1) of dropping a request — half before, half after it reaches the coordinator (0 = off)")
		chaosDelay   = fs.Duration("chaos-delay-max", 0, "chaos: delay each request by a deterministic uniform draw from [0, this) (0 = off)")
		chaos5xx     = fs.Float64("chaos-5xx", 0, "chaos: probability in [0,1) of substituting a 503 for a response (0 = off)")
		chaosCorrupt = fs.Float64("chaos-corrupt", 0, "chaos: probability in [0,1) of corrupting a response body in flight (0 = off)")
	)
	var ofl obs.Flags
	ofl.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *join == "" {
		return fmt.Errorf("-join is required")
	}
	if *outage < 0 {
		return fmt.Errorf("-max-outage must be >= 0, got %v", *outage)
	}
	if *smplAge < 0 {
		return fmt.Errorf("-sample-prune-age must be >= 0, got %v", *smplAge)
	}
	if *smplSize < 0 {
		return fmt.Errorf("-sample-prune-size must be >= 0, got %d", *smplSize)
	}
	if (*smplAge > 0 || *smplSize > 0) && *smplDir == "" {
		return fmt.Errorf("-sample-prune-age and -sample-prune-size require -sample-dir")
	}
	reg, finishObs, err := ofl.Setup(*stats)
	if err != nil {
		return err
	}
	if reg == nil && *beat > 0 {
		// Telemetry is on by default: even without local observability
		// sinks the worker keeps a registry so heartbeats carry a real
		// metrics snapshot and spans to the coordinator's fleet view.
		reg = obs.New()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := fabric.WorkerOptions{
		Name: *name, Parallelism: *parallel, Obs: reg,
		Heartbeat: *beat, MaxOutage: *outage,
	}
	if opts.Name == "" {
		opts.Name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	chaosPlan, err := chaos.NewPlan(chaos.Config{
		Seed: *chaosSeed, DropProb: *chaosDrop, DelayMax: *chaosDelay,
		Error5xxProb: *chaos5xx, CorruptProb: *chaosCorrupt,
	}, reg)
	if err != nil {
		return err
	}
	if chaosPlan != nil {
		opts.Client = &http.Client{Transport: chaosPlan.Transport(opts.Name, nil)}
	}
	if reg != nil && *beat > 0 {
		// Stamp this process's identity onto every span and buffer
		// completed spans (alongside any -trace-out sink) so heartbeat
		// pushes ship them; the coordinator's -trace-out then assembles
		// one interleaved trace for the whole fleet.
		reg.SetSpanIdentity(os.Getpid(), obs.L("worker", opts.Name))
		col := obs.NewSpanCollector(0)
		reg.SetSpanSink(obs.Tee(reg.SpanSink(), col))
		opts.Spans = col
	}
	if *smplDir != "" {
		samples, err := diskcache.OpenSamples(*smplDir)
		if err != nil {
			return err
		}
		opts.Samples = samples.WithObs(reg)
		if *smplAge > 0 || *smplSize > 0 {
			pst, err := samples.Prune(diskcache.PruneOptions{MaxAge: *smplAge, MaxBytes: *smplSize})
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "sweepd: sample prune: removed %d samples (%d bytes), kept %d (%d bytes)\n",
				pst.Removed, pst.Freed, pst.Kept, pst.Remaining)
		}
	}
	runWorker := fabric.Work
	if *loop {
		runWorker = fabric.WorkLoop
	}
	if err := runWorker(ctx, *join, opts); err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "sweepd: worker %s computed %d cells\n", opts.Name,
			reg.Counter("fabric_worker_cells_total", obs.L("worker", opts.Name)).Value())
	}
	return finishObs()
}

// top polls the coordinator's fleet view and renders a live per-worker
// table: liveness state, throughput, median cell seconds, current lease
// and the straggler flag.
func top(args []string) error {
	fs := flag.NewFlagSet("sweepd top", flag.ContinueOnError)
	var (
		join     = fs.String("join", "", "coordinator URL, e.g. http://host:8700 (required)")
		interval = fs.Duration("interval", time.Second, "poll interval")
		once     = fs.Bool("once", false, "print a single table and exit (no screen clearing)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *join == "" {
		return fmt.Errorf("-join is required")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	client := &http.Client{Timeout: 10 * time.Second}
	base := strings.TrimSuffix(*join, "/")
	first := true
	for {
		f, err := fetchFleet(ctx, client, base)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			if first {
				return err
			}
			// After a successful poll, the coordinator going away is the
			// normal end of the run, not an error.
			fmt.Fprintln(os.Stderr, "sweepd: coordinator gone:", err)
			return nil
		}
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		renderFleet(os.Stdout, f)
		if *once {
			return nil
		}
		first = false
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(*interval):
		}
	}
}

// fetchFleet GETs and decodes one /v1/fleet view.
func fetchFleet(ctx context.Context, client *http.Client, base string) (fabric.Fleet, error) {
	var f fabric.Fleet
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/fleet", nil)
	if err != nil {
		return f, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return f, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return f, fmt.Errorf("GET /v1/fleet: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		return f, fmt.Errorf("GET /v1/fleet: %w", err)
	}
	return f, nil
}

// renderFleet writes one frame of the fleet table.
func renderFleet(w io.Writer, f fabric.Fleet) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKER\tSTATE\tCELLS\tCELLS/S\tP50(S)\tLEASE\tINFLIGHT\tAGE\tFLAGS")
	for _, wk := range f.Workers {
		leaseID := wk.LeaseID
		if leaseID == "" {
			leaseID = "-"
		}
		flags := ""
		if wk.Straggler {
			flags = "straggler"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.4g\t%s\t%d\t%.1fs\t%s\n",
			wk.Worker, wk.State, wk.CellsTotal, wk.CellsPerSec, wk.CellSecondsP50,
			leaseID, wk.InflightCells, wk.AgeSeconds, flags)
	}
	tw.Flush()
	fmt.Fprintf(w, "\n%d/%d cells done, %d leased; fleet %.1f cells/s, p50 %.4gs; %d healthy / %d stale / %d lost\n",
		f.Status.Done, f.Status.Total, f.Status.Leased,
		f.CellsPerSec, f.CellSecondsP50, f.Healthy, f.Stale, f.Lost)
}
