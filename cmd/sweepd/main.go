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
// per-worker liveness/straggler view on GET /v1/fleet, which
// `sweepd top -join URL` renders live. `serve -fleet-out F` records the
// final fleet view, `-progress 5s` prints fleet lines on stderr, and a
// serve-side -trace-out interleaves every worker's spans into one Chrome
// trace. Telemetry is strictly off the completion path: results are
// byte-identical with it on or off.
//
// Two job kinds can be served (-job):
//
//	fluid        the default: a fluid-model steady-state sweep over the
//	             same grid and model flags as `sweep`; the table is
//	             byte-identical to `sweep`'s.
//	simvalidate  the fluid-vs-simulation validation: every scheme at every
//	             correlation in -ps, -replicas seeded replicas per row. The
//	             table is byte-identical to `mfdl simvalidate` at the same
//	             seed, replica count and stopping rule.
//
// This file is flag parsing and output. The serving — listener and
// -addr-file, chaos middleware, local workers, -progress, -fleet-out and
// the temporary checkpoint store — is a fabric.Campaign, and -ci-target is
// the replica engine's one stopping executor (sim.RunRounds): each round
// is a fresh job at the same address serving only the new replicas of the
// rows whose CI95 of -ci-metric still misses the target, so workers
// started with `work -loop` follow the rounds. With -sample-dir,
// simulation cells persist in a keyed sample store, so a later serve with
// more replicas simulates only the new ones; without it there is no store.
//
// -lease-target sizes each worker's leases to roughly that wall-time from
// its observed pace. With -addr-file the actual listen address (useful
// with port 0) is written for scripts. `work` needs only -join; it refuses
// job kinds its build does not register, and a worker still polling when
// the coordinator finishes and exits ends cleanly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"
	"time"

	"mfdl/internal/experiments"
	"mfdl/internal/fabric"
	"mfdl/internal/fabric/chaos"
	"mfdl/internal/fluid"
	"mfdl/internal/gridflag"
	"mfdl/internal/obs"
	"mfdl/internal/replica"
	"mfdl/internal/scheme"
	"mfdl/internal/table"
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
		ps      = fs.String("ps", "0.5,0.9", "simvalidate: comma-separated file correlations, one scheme matrix per value")
		horizon = fs.Float64("horizon", 4000, "simvalidate: simulated horizon")
		warmup  = fs.Float64("warmup", 800, "simvalidate: measurement warmup")
		smplDir = fs.String("sample-dir", "", "simvalidate: keyed replica-sample store; later serves with more replicas replay stored samples (empty = no store)")
		// Fabric flags.
		ckptDir     = fs.String("checkpoint-dir", "", "checkpoint store for completed cells; a restarted coordinator resumes from it (empty = private temp dir, no resume)")
		leaseCells  = fs.Int("lease-cells", 8, "cells granted per lease (the adaptive upper bound with -lease-target)")
		leaseTTL    = fs.Duration("lease-ttl", 30*time.Second, "lease exclusivity window; a worker silent for longer forfeits its cells")
		leaseTarget = fs.Duration("lease-target", 0, "size each worker's leases to roughly this wall-time from its observed cell pace (0 = fixed -lease-cells batches)")
		localW      = fs.Int("local-workers", 0, "also run this many in-process workers (0 = rely on sweepd work processes)")
		stats       = fs.Bool("stats", false, "print fabric progress counters on stderr")
		fleetOut    = fs.String("fleet-out", "", "write the final fleet view (per-worker liveness, rates, stragglers) as JSON to this file")
		progress    = fs.Duration("progress", 0, "print a fleet progress line (workers, cells/sec, stragglers) on stderr at this interval (0 = off)")
		// Chaos flags: deterministic server-side fault injection for soaks.
		chaosSeed  = fs.Uint64("chaos-seed", 0, "chaos: fault-plan seed; the same seed replays the identical fault schedule")
		chaos5xx   = fs.Float64("chaos-5xx", 0, "chaos: probability in [0,1) of substituting a 503 for a served response (0 = off)")
		chaosDelay = fs.Duration("chaos-delay-max", 0, "chaos: delay each served request by a deterministic uniform draw from [0, this) (0 = off)")
		chaosBlack = fs.String("chaos-blackout", "", "chaos: comma-separated start-end elapsed-time windows (e.g. 2s-4s,30s-35s) during which every request is rejected with 503")
	)
	var (
		ofl  obs.Flags
		ofmt gridflag.Format
		rf   = gridflag.Replicas{Seed: 1, Replicas: 1, CIMetric: replica.OnlinePerFile, ReplicasMax: 64}
	)
	ofl.Register(fs)
	ofmt.Register(fs)
	rf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if err := ofmt.Validate(); err != nil {
		return err
	}
	if *leaseTarget < 0 {
		return fmt.Errorf("-lease-target must be >= 0, got %v", *leaseTarget)
	}
	windows, err := parseWindows(*chaosBlack)
	if err != nil {
		return err
	}
	reg, finishObs, err := ofl.Setup(*stats)
	if err != nil {
		return err
	}
	// Lower the job before anything opens: every invalid value is an error
	// here, and the campaign's listener only opens once there is a job.
	params := fluid.Params{Mu: *mu, Eta: *eta, Gamma: *gamma}
	var runJob func(context.Context, *fabric.Campaign) (interface{ Table() *table.Table }, error)
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
			Config: experiments.Config{Params: params, K: *k, Lambda0: *lambda0},
			P:      *p, Rho: *rho, Theta: *theta, Scheme: sc, Grid: grid,
		}
		if err := spec.Config.Validate(); err != nil {
			return err
		}
		runJob = func(ctx context.Context, camp *fabric.Campaign) (interface{ Table() *table.Table }, error) {
			return spec.Serve(ctx, camp.Serve)
		}
	case "simvalidate":
		opts, err := rf.Options()
		if err != nil {
			return err
		}
		psList, err := gridflag.List("ps", *ps)
		if err != nil {
			return err
		}
		opts.Obs = reg
		plan, err := experiments.PlanSimValidate(experiments.SimSettings{
			Params: params, K: *k, Lambda0: *lambda0,
			Horizon: *horizon, Warmup: *warmup, Options: opts,
		}, psList)
		if err != nil {
			return err
		}
		runJob = func(ctx context.Context, camp *fabric.Campaign) (interface{ Table() *table.Table }, error) {
			return plan.Serve(ctx, camp.Serve)
		}
	default:
		return fmt.Errorf("unknown -job %q (want fluid or simvalidate)", *job)
	}

	// Coordinator-side spans carry the serve process's real pid, so a
	// -trace-out file interleaves cleanly with the worker spans shipped
	// in over telemetry (each tagged with its own origin pid).
	reg.SetSpanIdentity(os.Getpid())
	chaosPlan, err := chaos.NewPlan(chaos.Config{
		Seed: *chaosSeed, Error5xxProb: *chaos5xx,
		DelayMax: *chaosDelay, BlackoutWindows: windows,
	}, reg)
	if err != nil {
		return err
	}
	camp := &fabric.Campaign{
		Addr: *addr, AddrFile: *addrFile,
		CheckpointDir: *ckptDir, SampleDir: *smplDir,
		LocalWorkers: *localW,
		Coordinator: fabric.CoordinatorOptions{
			LeaseCells: *leaseCells, LeaseTTL: *leaseTTL,
			TargetLeaseSeconds: leaseTarget.Seconds(), Obs: reg,
		},
		Chaos: chaosPlan, Progress: *progress, FleetOut: *fleetOut,
		Log: log.New(os.Stderr, "sweepd: ", 0),
	}
	defer camp.Close()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := runJob(ctx, camp)
	if err != nil {
		return err
	}
	if err := res.Table().Write(os.Stdout, string(ofmt)); err != nil {
		return err
	}
	if *stats {
		count := func(name string) uint64 { return reg.Counter(name).Value() }
		st := camp.Status()
		fmt.Fprintf(os.Stderr, "sweepd: %d/%d cells done; leases granted %d, expired %d; completions %d (+%d duplicate, %d resumed)\n",
			st.Done, st.Total,
			count("fabric_leases_granted_total"),
			count("fabric_leases_expired_total"),
			count("fabric_cells_completed_total"),
			count("fabric_cells_duplicate_total"),
			count("fabric_cells_resumed_total"))
		if *job == "simvalidate" && *smplDir != "" {
			fmt.Fprintf(os.Stderr, "sweepd: sample store: %d hits / %d misses (%d stored, %d corrupt, %d evicted)\n",
				count("samplestore_hits_total"), count("samplestore_misses_total"), count("samplestore_stores_total"),
				count("samplestore_corrupt_total"), count("samplestore_evicted_total"))
		}
	}
	return finishObs()
}

func work(args []string) error {
	fs := flag.NewFlagSet("sweepd work", flag.ContinueOnError)
	var (
		join     = fs.String("join", "", "coordinator URL, e.g. http://host:8700 (required)")
		parallel = fs.Int("parallel", 1, "cells computed concurrently by this worker")
		name     = fs.String("name", "", "worker name reported to the coordinator (default worker-<pid>)")
		loop     = fs.Bool("loop", false, "keep pulling jobs as the coordinator swaps them (sequential-stopping rounds); exit cleanly when it shuts down")
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
	var (
		ofl obs.Flags
		sf  = gridflag.Store{Name: "sample"}
	)
	ofl.Register(fs)
	sf.Register(fs, "keyed replica-sample store: simulation cells replay stored samples and persist fresh ones (empty = off)")
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
	samples, err := sf.Samples("sweepd", reg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := fabric.WorkerOptions{
		Name: *name, Parallelism: *parallel, Obs: reg,
		Heartbeat: *beat, MaxOutage: *outage, Samples: samples,
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
