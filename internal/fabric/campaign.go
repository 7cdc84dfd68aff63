package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mfdl/internal/fabric/chaos"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// Campaign serves a sequence of jobs of any kind at one address, with a
// fresh Coordinator per job behind a swappable handler. A run in rounds
// (sim.RunRounds) calls Serve per round, each round a spec of only its new
// replicas, and WorkLoop workers follow. Set the fields before the first
// Serve, which opens the listener once its spec is valid; Serve calls must
// not overlap, and Close releases everything.
type Campaign struct {
	Addr     string // listen address; port 0 picks a free port
	AddrFile string // receives the actual listen address once it is up
	// CheckpointDir holds completed cells; empty means a private temp dir
	// that Close removes.
	CheckpointDir string
	// SampleDir, when set, is the keyed replica-sample store the
	// coordinator and the local workers share, so a later campaign with
	// more replicas replays every sample drawn here; empty means no store.
	SampleDir string
	// LocalWorkers run in process beside any remote workers, each with a
	// private registry as a separate worker process would have, so the
	// fleet /metrics view counts it once.
	LocalWorkers int
	// Coordinator configures every job's coordinator (the campaign sets
	// Samples); its Obs also receives the sample store's counters.
	Coordinator CoordinatorOptions
	Chaos       *chaos.Plan   // server-side faults, one schedule for all jobs
	Progress    time.Duration // log a fleet line at this interval (0 = off)
	FleetOut    string        // receives each finished job's fleet view as JSON
	Log         *log.Logger   // per-job and progress lines (nil = silent)

	ckpt    *diskcache.CheckpointStore
	samples *diskcache.SampleStore
	tmp     string // private checkpoint dir, removed by Close
	srv     *http.Server
	url     string
	stop    context.CancelFunc
	serving sync.WaitGroup // the server and progress goroutines

	mu      sync.Mutex
	coord   *Coordinator
	handler http.Handler
}

// Serve distributes spec to the local workers and to every remote worker
// that joins, and returns each cell's payload in cell order once all are
// done (see Coordinator.Payloads). A local worker's failure or ctx's
// cancellation aborts the job.
func (c *Campaign) Serve(ctx context.Context, spec runner.JobSpec) ([][]byte, error) {
	if err := c.openStores(); err != nil {
		return nil, err
	}
	opts := c.Coordinator
	opts.Samples = c.samples
	coord, err := NewCoordinator(spec, c.ckpt, opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.coord, c.handler = coord, coord.Handler()
	c.mu.Unlock()
	if err := c.listen(); err != nil {
		return nil, err
	}
	st := coord.Status()
	c.logf("serving %d cells (%d resumed) on %s", st.Total, st.Done, c.url)
	if err := c.runWorkers(ctx, coord); err != nil {
		return nil, err
	}
	payloads, err := coord.Payloads(ctx)
	if err != nil || c.FleetOut == "" {
		return payloads, err
	}
	data, err := json.MarshalIndent(coord.Fleet(), "", "  ")
	if err == nil {
		err = os.WriteFile(c.FleetOut, append(data, '\n'), 0o644)
	}
	return payloads, err
}

// Status reports the progress of the job being served, or of the last one.
func (c *Campaign) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.coord == nil {
		return Status{}
	}
	return c.coord.Status()
}

// Close stops serving, waits for the serving goroutines, and removes the
// private checkpoint directory.
func (c *Campaign) Close() error {
	var err error
	if c.srv != nil {
		c.stop()
		err = c.srv.Close()
		c.serving.Wait()
	}
	if c.tmp != "" {
		os.RemoveAll(c.tmp)
	}
	return err
}

// ServeHTTP dispatches to the current job's coordinator.
func (c *Campaign) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	h := c.handler
	c.mu.Unlock()
	h.ServeHTTP(w, r)
}

func (c *Campaign) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log.Printf(format, args...)
	}
}

// openStores opens the checkpoint store, and the sample store if a
// directory is set, on first use.
func (c *Campaign) openStores() error {
	if c.ckpt != nil {
		return nil
	}
	var err error
	if c.SampleDir != "" {
		if c.samples, err = diskcache.OpenSamples(c.SampleDir); err != nil {
			return err
		}
		c.samples.WithObs(c.Coordinator.Obs)
	}
	ckptDir := c.CheckpointDir
	if ckptDir == "" {
		if ckptDir, err = os.MkdirTemp("", "fabric-campaign-*"); err != nil {
			return err
		}
		c.tmp = ckptDir
	}
	c.ckpt, err = diskcache.OpenCheckpoint(ckptDir)
	return err
}

// listen binds the address on first use, writes AddrFile, and starts
// serving through the chaos middleware (a no-op on a nil plan) plus the
// progress ticker. The header timeout keeps a stalled client from pinning
// an accept slot; per-request timeouts live inside the coordinator.
func (c *Campaign) listen() error {
	if c.srv != nil {
		return nil
	}
	ln, err := net.Listen("tcp", c.Addr)
	if err != nil {
		return err
	}
	if c.AddrFile != "" {
		if err := os.WriteFile(c.AddrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	c.url = "http://" + ln.Addr().String()
	c.srv = &http.Server{Handler: c.Chaos.Middleware(c), ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := context.WithCancel(context.Background())
	c.stop = stop
	c.serving.Add(2)
	go func() {
		defer c.serving.Done()
		c.srv.Serve(ln)
	}()
	go func() {
		defer c.serving.Done()
		c.progress(ctx)
	}()
	return nil
}

// progress logs one fleet line per tick, if asked to, until ctx ends.
func (c *Campaign) progress(ctx context.Context) {
	if c.Progress <= 0 {
		return
	}
	t := time.NewTicker(c.Progress)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		c.mu.Lock()
		coord := c.coord
		c.mu.Unlock()
		f := coord.Fleet()
		var stragglers []string
		for _, w := range f.Workers {
			if w.Straggler {
				stragglers = append(stragglers, w.Worker)
			}
		}
		line := fmt.Sprintf("fleet: %d/%d cells, %d workers (%d healthy, %d stale, %d lost), %.1f cells/s",
			f.Status.Done, f.Status.Total, len(f.Workers), f.Healthy, f.Stale, f.Lost, f.CellsPerSec)
		if len(stragglers) > 0 {
			line += ", stragglers: " + strings.Join(stragglers, ",")
		}
		c.logf("%s", line)
	}
}

// runWorkers runs the local workers against one coordinator until its job
// completes — by their hands or remote workers' — or a local worker fails,
// which aborts the job. It waits on the coordinator, not on the workers:
// one still sitting out an idle poll when the last cell lands is
// cancelled, and returns as soon as its farewell telemetry push is out.
func (c *Campaign) runWorkers(ctx context.Context, coord *Coordinator) error {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make(chan error, c.LocalWorkers)
	for i := range c.LocalWorkers {
		name := fmt.Sprintf("local-%d", i)
		reg := obs.New()
		reg.SetSpanIdentity(os.Getpid(), obs.L("worker", name))
		spans := obs.NewSpanCollector(0)
		reg.SetSpanSink(spans)
		go func() {
			errs <- Work(wctx, c.url, WorkerOptions{Name: name, Obs: reg, Spans: spans, Samples: c.samples})
		}()
	}
	running := c.LocalWorkers
	var err error
	for waiting := true; waiting; {
		select {
		case <-coord.Done():
			waiting = false
		case <-ctx.Done():
			err, waiting = ctx.Err(), false
		case werr := <-errs:
			running--
			if werr != nil {
				err, waiting = werr, false
			}
		}
	}
	cancel()
	for ; running > 0; running-- {
		<-errs
	}
	return err
}
