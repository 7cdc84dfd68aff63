package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// ---- order statistics ----

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---- resource meter ----

// usage is what a timed section cost the process.
type usage struct {
	Wall, CPU time.Duration
	AllocMB   float64
}

type meter struct {
	t0    time.Time
	cpu0  time.Duration
	heap0 uint64
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func startMeter() meter {
	return meter{heap0: totalAlloc(), cpu0: processCPU(), t0: time.Now()}
}

func (m meter) stop() usage {
	wall := time.Since(m.t0)
	return usage{
		Wall: wall, CPU: processCPU() - m.cpu0,
		AllocMB: float64(totalAlloc()-m.heap0) / (1 << 20),
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set, from /proc.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// timePer runs f in a loop for at least minWall (and at least minIter
// times) and returns the mean wall time of one call.
func timePer(minWall time.Duration, minIter int, f func()) time.Duration {
	n := 0
	t0 := time.Now()
	for {
		f()
		n++
		if n >= minIter && time.Since(t0) >= minWall {
			return time.Since(t0) / time.Duration(n)
		}
	}
}

// ---- spans ----

// span is one timed call across a layer boundary. Start and End are
// nanoseconds since the trace began; Parent is the ID of the span that
// caused it (0 = none); spans of one cell share Cell.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Cell   int    `json:"cell"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so traced and untraced code share one path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell, Start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record stores a span whose ends were observed elsewhere (the fabric
// worker's OnLease and OnCell hooks).
func (t *tracer) record(name string, parent, cell int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Cell: cell,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// call records one span around f.
func (t *tracer) call(name string, parent, cell int, f func()) {
	id := t.start(name, parent, cell)
	f()
	t.end(id)
}

// layerOf maps a span name to its layer: the part before the first
// capitalised component, e.g. "runner/diskcache.Store.Put" ->
// "runner/diskcache". Harness spans ("bench.…") belong to no layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		if self < 0 {
			// Children running in parallel goroutines (fabric handlers
			// under a client request) can cover more than the parent.
			self = 0
		}
		out[s.Name] += time.Duration(self)
	}
	return out
}

// durations returns every span duration recorded under name, in ms.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// attributed sums the self time of every layer span (harness spans
// excluded) — the numerator of bench.attributed_frac.
func (t *tracer) attributed() time.Duration {
	var sum time.Duration
	for name, d := range t.selfTimes() {
		if layerOf(name) != "bench" {
			sum += d
		}
	}
	return sum
}

// write stores the spans and the per-layer self-time table as JSON.
func (t *tracer) write(path, workload string) error {
	layers := map[string]float64{}
	for name, d := range t.selfTimes() {
		layers[layerOf(name)] += d.Seconds()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload   string             `json:"workload"`
		LayerSelfS map[string]float64 `json:"layer_self_s"`
		Spans      []span             `json:"spans"`
	}{workload, layers, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
