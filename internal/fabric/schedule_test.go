package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// The hostile-schedule explorer: every interleaving of the fabric protocol
// over a three-cell job and two workers, up to a small budget of faults,
// is executed against the real coordinator and checkpoint store (no
// network, a hand-cranked clock), and every one of them must end with each
// cell committed exactly once and the assembled payloads byte-identical to
// a local run.
//
// The exploration is stateless model checking: a path is a sequence of
// choices among the actions enabled at each step; paths are enumerated by
// an odometer over those choices, each run from scratch. What bounds the
// tree is in schedPath.actions: a path may spend at most schedFaults
// faults (lease expiry, coordinator restart, a crash between the store
// write and the commit, two simultaneous completions of one cell), one
// renewal and one fruitless lease request; past that only actions that
// make progress remain, so every path terminates on its own.

const (
	schedFaults = 1
	schedTTL    = 10 * time.Second
)

// schedSpec is the explorer's job: three fluid cells.
func schedSpec(t testing.TB) runner.JobSpec {
	t.Helper()
	spec := runner.JobSpec{
		Schema: runner.JobSpecSchemaVersion,
		Kind:   runner.JobKindFluidSweep,
		Base: runner.Key{
			Scheme: scheme.MTCD, Params: fluid.PaperParams,
			K: 5, P: 0.9, Lambda0: 1,
		},
		Dims: []runner.Dim{{Name: "p", Values: []float64{0.2, 0.5, 0.8}}},
		Seed: 5,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// schedWorker is a worker as the coordinator can observe one: the lease it
// believes it holds and the cells it has been granted and not yet posted.
type schedWorker struct {
	name  string
	lease string
	cells []int
}

// schedPath is one run of the protocol from an empty store.
type schedPath struct {
	t     *testing.T
	spec  runner.JobSpec
	fp    string
	want  [][]byte
	store *diskcache.CheckpointStore
	now   time.Time

	coord *Coordinator
	h     http.Handler
	reg   *obs.Registry

	// commits counts cells that entered the done set on this path: the
	// completed counter of every coordinator incarnation, plus the store
	// writes a crash left behind for the next incarnation to resume.
	commits uint64
	workers [2]*schedWorker
	faults  int
	renews  int
	idle    int
	trace   []string
}

// start brings up a coordinator incarnation over the path's store, retiring
// the previous one.
func (p *schedPath) start() {
	if p.reg != nil {
		p.commits += p.reg.Counter("fabric_cells_completed_total").Value()
	}
	p.reg = obs.New()
	coord, err := NewCoordinator(p.spec, p.store, CoordinatorOptions{
		LeaseCells: 2, LeaseTTL: schedTTL, Obs: p.reg,
		Clock: func() time.Time { return p.now },
	})
	if err != nil {
		p.t.Fatalf("%v: restart: %v", p.trace, err)
	}
	p.coord, p.h = coord, coord.Handler()
}

// post sends one request through the coordinator's handler.
func (p *schedPath) post(path, worker string, body []byte) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set(headerWorker, worker)
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func (p *schedPath) entry(cell int) []byte {
	body, err := diskcache.Entry{
		Schema: diskcache.CheckpointSchemaVersion, Key: p.fp, Cell: cell, Payload: p.want[cell],
	}.Encode()
	if err != nil {
		p.t.Fatal(err)
	}
	return body
}

func (p *schedPath) lease(w *schedWorker) {
	body, _ := json.Marshal(leaseRequest{Worker: w.name, Fingerprint: p.fp})
	code, data := p.post(pathLease, w.name, body)
	var resp leaseResponse
	if code != http.StatusOK || json.Unmarshal(data, &resp) != nil {
		p.t.Fatalf("%v: lease answered %d %s", p.trace, code, data)
	}
	if resp.Lease == nil {
		p.idle++
		return
	}
	w.lease, w.cells = resp.Lease.ID, resp.Lease.Cells
}

func (p *schedPath) renew(w *schedWorker) {
	p.renews++
	body, _ := json.Marshal(renewRequest{Worker: w.name, Lease: w.lease, Fingerprint: p.fp})
	// A refused renewal (409) is legal on any path that expired or
	// restarted; the worker carries on and relies on idempotent completes.
	if code, data := p.post(pathRenew, w.name, body); code != http.StatusOK && code != http.StatusConflict {
		p.t.Fatalf("%v: renew answered %d %s", p.trace, code, data)
	}
}

// complete posts the worker's first n granted cells as one body.
func (p *schedPath) complete(w *schedWorker, n int) {
	var body bytes.Buffer
	for _, cell := range w.cells[:n] {
		body.Write(p.entry(cell))
		body.WriteByte('\n')
	}
	if code, data := p.post(pathComplete, w.name, body.Bytes()); code != http.StatusOK {
		p.t.Fatalf("%v: complete answered %d %s", p.trace, code, data)
	}
	if w.cells = w.cells[n:]; len(w.cells) == 0 {
		w.lease = ""
	}
}

// completeTwice posts the worker's next cell from two goroutines at once.
// Whatever the interleaving of their claims, exactly one may commit.
func (p *schedPath) completeTwice(w *schedWorker) {
	p.faults++
	body := p.entry(w.cells[0])
	before := p.reg.Counter("fabric_cells_completed_total").Value()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, data := p.post(pathComplete, w.name, body); code != http.StatusOK {
				p.t.Errorf("%v: simultaneous complete answered %d %s", p.trace, code, data)
			}
		}()
	}
	wg.Wait()
	if got := p.reg.Counter("fabric_cells_completed_total").Value() - before; got > 1 {
		p.t.Fatalf("%v: two simultaneous completions of cell %d committed %d times", p.trace, w.cells[0], got)
	}
	if w.cells = w.cells[1:]; len(w.cells) == 0 {
		w.lease = ""
	}
}

// crash kills the coordinator between the store write and the commit of
// the worker's next cell: the entry is on disk, no coordinator ever marked
// it done, and a successor starts over the same store. The worker's post
// failed, so it still holds the cell and will post it again.
func (p *schedPath) crash(w *schedWorker) {
	p.faults++
	cell := w.cells[0]
	if _, stored := p.store.Get(p.fp, cell); !stored {
		p.commits++
	}
	e := diskcache.Entry{Schema: diskcache.CheckpointSchemaVersion, Key: p.fp, Cell: cell, Payload: p.want[cell]}
	if err := p.store.PutEntry(e); err != nil {
		p.t.Fatal(err)
	}
	p.start()
}

// actions lists what may happen next, in a fixed order.
func (p *schedPath) actions() (names []string, run []func()) {
	add := func(name string, f func()) { names, run = append(names, name), append(run, f) }
	a, b := p.workers[0], p.workers[1]
	workers := p.workers[:]
	if a.lease == "" && b.lease == "" && len(a.cells) == 0 && len(b.cells) == 0 {
		workers = workers[:1] // indistinguishable workers: one stands for both
	}
	leased := false
	for _, w := range workers {
		switch {
		case len(w.cells) == 0:
			if p.idle < 1 {
				add(w.name+":lease", func() { p.lease(w) })
			}
			continue
		case len(w.cells) > 1:
			add(w.name+":complete-batch", func() { p.complete(w, len(w.cells)) })
		}
		leased = true
		add(w.name+":complete-one", func() { p.complete(w, 1) })
		if p.renews < 1 {
			add(w.name+":renew", func() { p.renew(w) })
		}
		if p.faults < schedFaults {
			add(w.name+":complete-twice", func() { p.completeTwice(w) })
			add(w.name+":crash-mid-complete", func() { p.crash(w) })
		}
	}
	if p.faults < schedFaults {
		if leased {
			add("expire", func() { p.faults++; p.now = p.now.Add(schedTTL + time.Second) })
		}
		add("restart", func() { p.faults++; p.start() })
	}
	return names, run
}

// finish drains whatever the explored prefix left undone with a healthy
// worker, then checks the path's invariants.
func (p *schedPath) finish() {
	closer := &schedWorker{name: "closer"}
	for rounds := 0; ; rounds++ {
		select {
		case <-p.coord.Done():
		default:
			if rounds > 8 {
				p.t.Fatalf("%v: job not done after %d closing rounds: %+v", p.trace, rounds, p.coord.Status())
			}
			// Anything still leased belongs to a worker the path abandoned.
			p.now = p.now.Add(schedTTL + time.Second)
			p.idle = 0
			if p.lease(closer); len(closer.cells) > 0 {
				p.complete(closer, len(closer.cells))
			}
			continue
		}
		break
	}
	completed := p.reg.Counter("fabric_cells_completed_total").Value()
	resumed := p.reg.Counter("fabric_cells_resumed_total").Value()
	if completed+resumed != uint64(len(p.want)) {
		p.t.Fatalf("%v: last coordinator completed %d + resumed %d cells, want %d in all",
			p.trace, completed, resumed, len(p.want))
	}
	if got := p.commits + completed; got != uint64(len(p.want)) {
		p.t.Fatalf("%v: %d commits over the whole path, want each of %d cells exactly once", p.trace, got, len(p.want))
	}
	got, err := p.coord.Payloads(context.Background())
	if err != nil {
		p.t.Fatalf("%v: %v", p.trace, err)
	}
	for i := range p.want {
		if !bytes.Equal(got[i], p.want[i]) {
			p.t.Fatalf("%v: payload %d differs from the local run's", p.trace, i)
		}
	}
}

func TestHostileSchedules(t *testing.T) {
	spec := schedSpec(t)
	want, err := runner.RunJobPayloads(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// One store for every path: Payloads clears the run's checkpoints, so
	// each path starts empty.
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	var choices, widths []int
	paths, seen := 0, map[string]bool{}
	for {
		p := &schedPath{
			t: t, spec: spec, fp: spec.Fingerprint(), want: want, store: store,
			now:     time.Unix(0, 0),
			workers: [2]*schedWorker{{name: "a"}, {name: "b"}},
		}
		p.start()
		widths = widths[:0]
		for step := 0; ; step++ {
			names, run := p.actions()
			select {
			case <-p.coord.Done():
				names = nil
			default:
			}
			if len(names) == 0 {
				break
			}
			if step == len(choices) {
				choices = append(choices, 0)
			}
			widths = append(widths, len(names))
			name := names[choices[step]]
			p.trace = append(p.trace, name)
			seen[name[strings.IndexByte(name, ':')+1:]] = true
			run[choices[step]]()
		}
		p.finish()
		paths++

		// Next path: bump the deepest choice that has an alternative left.
		choices = choices[:len(widths)]
		i := len(choices) - 1
		for ; i >= 0 && choices[i]+1 == widths[i]; i-- {
		}
		if i < 0 {
			break
		}
		choices[i]++
		choices = choices[:i+1]
	}
	for _, kind := range []string{"lease", "renew", "complete-one", "complete-batch", "complete-twice", "crash-mid-complete", "expire", "restart"} {
		if !seen[kind] {
			t.Errorf("no explored path took a %s step", kind)
		}
	}
	t.Logf("explored %d schedules", paths)
}
