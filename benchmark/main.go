// Command benchmark is the repository's one benchmark: five named
// workloads, end-to-end metrics from untraced runs, and a per-layer table
// from a traced run. See README.md.
//
//	go -C benchmark run . -seed 1                  every workload, -reps runs each
//	go -C benchmark run . -seed 1 -trace 1         ... plus one traced run each
//	go -C benchmark run . -workload flow_sim ...   one run of one workload (what the driver calls)
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

type config struct {
	Workload  string
	Seed      uint64
	Seconds   float64
	Trace     int
	Reps      int
	Scale     float64
	Layers    string
	Out       string
	SelfCheck bool

	// scratch is the run's own directory under Out; every batch gets a
	// fresh subdirectory of it.
	scratch string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Workload, "workload", "", "run this workload once and print one result line (empty = full report over every workload)")
	flag.Uint64Var(&cfg.Seed, "seed", 1, fmt.Sprintf("seed of the generated inputs (held out, not for tuning: %d)", heldOutSeed))
	flag.Float64Var(&cfg.Seconds, "seconds", 10, "how long one run measures")
	flag.IntVar(&cfg.Trace, "trace", 0, "1 = traced run: per-layer metrics and out/<workload>.trace.json")
	flag.IntVar(&cfg.Reps, "reps", 3, "full report: untraced runs per workload (the median is reported)")
	flag.Float64Var(&cfg.Scale, "scale", 1, "shrink cell counts; for the smoke test only")
	flag.StringVar(&cfg.Layers, "layers", "all", "traced run: measure the layers of every workload (all) or only of -workload (named)")
	flag.StringVar(&cfg.Out, "out", "out", "directory for trace files and scratch stores")
	flag.BoolVar(&cfg.SelfCheck, "selfcheck", false, "full report: run everything twice and compare the medians against each metric's bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	var err error
	if cfg.Workload == "" {
		err = fullReport(cfg)
	} else {
		err = runOne(cfg)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// loopWorkers is W, the closed loop's client count.
func loopWorkers() int { return min(runtime.NumCPU(), 4) }

// stat is one metric of one run: the median over the run's batches, with
// the extremes.
type stat struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

func newStat(xs []float64, unit string) stat {
	lo, hi := minMax(xs)
	return stat{Median: median(xs), Min: lo, Max: hi, Unit: unit}
}

// runReport is what one run of one workload hands the full report (on the
// "detail:" line) — more than the driver's result line may carry.
type runReport struct {
	Workload     string          `json:"workload"`
	Seed         uint64          `json:"seed"`
	Workers      int             `json:"workers"`
	Batches      int             `json:"batches"`
	Attempted    int             `json:"attempted"`
	Failed       int             `json:"failed"`
	Notes        []string        `json:"notes,omitempty"`
	OutputSHA256 string          `json:"output_sha256"`
	Metrics      map[string]stat `json:"metrics"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne is one run of one workload in this process.
func runOne(cfg config) error {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(cfg.Out, w.Name+"-")
	if err != nil {
		return err
	}
	cfg.scratch = scratch
	// Scratch stores are deleted once, when the run is over: on the
	// sandbox's ext4 unlinking a few thousand files slows file creation
	// fourfold for seconds afterwards, which would otherwise land in the
	// next batch's set-up and timed section.
	defer os.RemoveAll(scratch)
	workers := loopWorkers()
	runtime.GOMAXPROCS(workers)
	in := newInputs(cfg.Seed, cfg.Scale)
	ctx := context.Background()

	var rep runReport
	var decls []metricDecl
	if cfg.Trace == 0 {
		rep, err = runUntraced(ctx, cfg, w, in, workers)
		decls = endToEnd
	} else {
		rep, decls, err = runTraced(ctx, cfg, w, in, workers)
	}
	if err != nil {
		return err
	}
	rep.Workload, rep.Seed, rep.Workers = w.Name, cfg.Seed, workers

	line := resultLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]resultValue{}}
	for _, d := range decls {
		s, ok := rep.Metrics[d.Name]
		if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
			return fmt.Errorf("%s: metric %s was not measured (%v)", w.Name, d.Name, s.Median)
		}
		line.Metrics[d.Name] = resultValue{Value: s.Median, Unit: d.Unit}
		fmt.Printf("%-34s %14.6g %s\n", d.Name, s.Median, d.Unit)
	}
	for _, note := range rep.Notes {
		fmt.Println("FAILED:", note)
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Printf("detail: %s\n", detail)
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

// oneBatch runs one batch in a fresh scratch directory.
func oneBatch(ctx context.Context, cfg config, w workload, in inputs, o batchOpts) (batchResult, error) {
	dir, err := os.MkdirTemp(cfg.scratch, w.Name+"-")
	if err != nil {
		return batchResult{}, err
	}
	o.Dir = dir
	r, err := w.batch(ctx, in, o)
	if err != nil {
		return r, fmt.Errorf("%s: %w", w.Name, err)
	}
	return r, nil
}

// spinUp keeps every loop worker's core busy for d before anything is
// timed. On the sandbox a core that has idled runs at under half speed for
// about its first second of load; a run that starts measuring at once reads
// that ramp, not the program.
func spinUp(workers int, d time.Duration) {
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := 1.0
			for t0 := time.Now(); time.Since(t0) < d; {
				for j := 0; j < 1_000_000; j++ {
					x = x*1.0000001 + 1e-7
				}
			}
			spinSink.Store(math.Float64bits(x))
		}()
	}
	wg.Wait()
}

// spinSink keeps the compiler from deleting spinUp's arithmetic.
var spinSink atomic.Uint64

// runUntraced repeats the workload's batch until -seconds of measuring
// have passed and reports the median batch.
func runUntraced(ctx context.Context, cfg config, w workload, in inputs, workers int) (runReport, error) {
	var (
		rep      runReport
		measured time.Duration
		first    []byte
		series   = map[string][]float64{}
	)
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	spinUp(workers, budget/8)
	for measured < budget || rep.Batches == 0 {
		r, err := oneBatch(ctx, cfg, w, in, batchOpts{Workers: workers})
		if err != nil {
			return rep, err
		}
		if rep.Batches == 0 {
			first = r.Output
		} else if !bytes.Equal(r.Output, first) {
			r.fail(r.Cells, "%s: batch %d computed different output from the same inputs", w.Name, rep.Batches)
		}
		rep.Batches++
		measured += r.Setup + r.Measured
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Notes = append(rep.Notes, r.Notes...)
		series["wall_s"] = append(series["wall_s"], r.Timed.Wall.Seconds())
		series["cells_per_s"] = append(series["cells_per_s"], float64(r.Cells)/r.Timed.Wall.Seconds())
		series["cpu_s"] = append(series["cpu_s"], r.Timed.CPU.Seconds())
		series["alloc_mb"] = append(series["alloc_mb"], r.Timed.AllocMB)
		series["setup_s"] = append(series["setup_s"], r.Setup.Seconds())
		for k, v := range r.Extra {
			series[k] = append(series[k], v)
		}
	}
	rep.OutputSHA256 = fmt.Sprintf("%x", sha256.Sum256(first))
	rep.Metrics = map[string]stat{}
	for _, d := range endToEndAll {
		if xs := series[d.Name]; len(xs) > 0 {
			rep.Metrics[d.Name] = newStat(xs, d.Unit)
		}
	}
	rep.Metrics["fail_frac"] = newStat([]float64{float64(rep.Failed) / float64(rep.Attempted)}, "frac")
	return rep, nil
}

// runTraced measures the layers. The named workload goes first: an
// untraced batch (the production path: baseline wall-clock and cache
// counts), the traced batch, and a one-worker batch (the plain
// single-threaded baseline). With -layers all, every other workload then
// runs its traced batch and probes too, so one run yields every per-layer
// metric whatever workload was named.
func runTraced(ctx context.Context, cfg config, w workload, in inputs, workers int) (runReport, []metricDecl, error) {
	var rep runReport
	vals := map[string]map[string]float64{}
	order := []workload{w}
	if cfg.Layers == "all" {
		for _, other := range workloads {
			if other.Name != w.Name {
				order = append(order, other)
			}
		}
	}
	for _, y := range order {
		v := map[string]float64{}
		vals[y.Name] = v
		tr := newTracer()
		var base batchResult
		if y.Name == w.Name {
			var err error
			if base, err = oneBatch(ctx, cfg, y, in, batchOpts{Workers: workers}); err != nil {
				return rep, nil, err
			}
		}
		traced, err := oneBatch(ctx, cfg, y, in, batchOpts{Workers: workers, Trace: tr})
		if err != nil {
			return rep, nil, err
		}
		if y.Name == w.Name {
			if !bytes.Equal(traced.Output, base.Output) {
				traced.fail(traced.Cells, "%s: the traced pipeline computed different output from the production path", y.Name)
			}
			rep.OutputSHA256 = fmt.Sprintf("%x", sha256.Sum256(base.Output))
			cpu := traced.Timed.CPU
			if cpu <= 0 {
				cpu = traced.Timed.Wall
			}
			v["bench.attributed_frac"] = tr.attributed().Seconds() / cpu.Seconds()
			v["bench.trace_overhead_frac"] = traced.Timed.Wall.Seconds()/base.Timed.Wall.Seconds() - 1
		}
		rep.absorb(&traced, v)
		if y.Name == w.Name {
			// Where both batches report a value, the untraced one stands.
			rep.absorb(&base, v)
			if _, ok := v["runner.speedup_w"]; !ok {
				speedup := 1.0
				if workers > 1 {
					one, err := oneBatch(ctx, cfg, y, in, batchOpts{Workers: 1})
					if err != nil {
						return rep, nil, err
					}
					if !bytes.Equal(one.Output, base.Output) {
						one.fail(one.Cells, "%s: one worker and %d workers computed different output", y.Name, workers)
					}
					one.Layer, one.Extra = nil, nil
					rep.absorb(&one, v)
					speedup = one.Timed.Wall.Seconds() / base.Timed.Wall.Seconds()
				}
				v["runner.speedup_w"] = speedup
			}
			v["proc.peak_rss_mb"] = peakRSSMB()
		}
		dir, err := os.MkdirTemp(cfg.scratch, y.Name+"-probes-")
		if err != nil {
			return rep, nil, err
		}
		probed, err := y.probes(ctx, in, batchOpts{Workers: workers, Dir: dir})
		if err != nil {
			return rep, nil, fmt.Errorf("%s probes: %w", y.Name, err)
		}
		for k, x := range probed {
			v[k] = x
		}
		if err := tr.write(filepath.Join(cfg.Out, y.Name+".trace.json"), y.Name); err != nil {
			return rep, nil, err
		}
	}
	// chunk_sim's ci_rel has its own name in the flat per-layer table.
	if v, ok := vals["chunk_sim"]; ok {
		v["ci_rel.chunk_sim"] = v["ci_rel"]
		delete(v, "ci_rel")
	}

	rep.Metrics = map[string]stat{}
	var decls []metricDecl
	for _, d := range perLayer {
		home := d.Home
		if home == "" {
			home = w.Name
		}
		v, measuredHere := vals[home]
		if !measuredHere {
			continue // -layers named, and this metric lives elsewhere
		}
		decls = append(decls, d)
		if x, ok := v[d.Name]; ok {
			rep.Metrics[d.Name] = stat{Median: x, Min: x, Max: x, Unit: d.Unit}
		}
	}
	return rep, decls, nil
}

// absorb folds one batch of a traced run into the report and the layer
// values.
func (rep *runReport) absorb(r *batchResult, into map[string]float64) {
	rep.Batches++
	rep.Attempted += r.Attempted
	rep.Failed += r.Failed
	rep.Notes = append(rep.Notes, r.Notes...)
	for k, x := range r.Layer {
		into[k] = x
	}
	for k, x := range r.Extra {
		into[k] = x
	}
}
