package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// workerRegistry builds a registry shaped like one fleet worker's:
// shared counter/histogram names that must sum across workers, plus a
// gauge that must be re-labeled per worker.
func workerRegistry(cells uint64, lat ...float64) *Registry {
	r := New()
	r.Counter("runner_cells_completed_total").Add(cells)
	r.Counter("fabric_worker_cells_total", L("worker", "self")).Add(cells)
	r.Gauge("runner_worker_utilization").Set(float64(cells) / 10)
	h := r.Histogram("cell_seconds", []float64{0.01, 0.1, 1})
	for _, v := range lat {
		h.Observe(v)
	}
	return r
}

func promText(t *testing.T, s Snapshot) string {
	t.Helper()
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func encode(t *testing.T, s Snapshot) []byte {
	t.Helper()
	b, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Snapshot → Encode → Decode → Encode is bit-stable, and the decoded
// snapshot carries the exact values.
func TestSnapshotEncodeDecodeRoundTrip(t *testing.T) {
	r := workerRegistry(3, 0.005, 0.05, 0.5)
	r.Gauge("awkward", L("cell", `p="0.5" rho\1`)).Set(0.1 + 0.2) // non-terminating binary fraction
	s := r.Snapshot()
	b1 := encode(t, s)
	dec, err := DecodeSnapshot(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := encode(t, dec)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("re-encoding changed bytes:\n%s\n%s", b1, b2)
	}
	if got, want := promText(t, dec), promText(t, normalized(s)); got != want {
		t.Fatalf("decoded exposition differs:\n got %s\nwant %s", got, want)
	}
	g := dec.family("awkward")
	if g == nil || g.Series[0].Value != fnum(0.1+0.2) {
		t.Fatalf("gauge value not bit-exact: %+v", g)
	}
}

func normalized(s Snapshot) Snapshot {
	c := cloneSnapshot(s)
	c.normalize()
	return c
}

// The registry's own exports render from the snapshot: identical bytes.
func TestRegistryExportsMatchSnapshot(t *testing.T) {
	r := workerRegistry(5, 0.02, 0.2)
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("registry and snapshot expositions differ:\n%s\n%s", a.String(), b.String())
	}
	var aj, bj strings.Builder
	if err := r.WriteJSON(&aj); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&bj); err != nil {
		t.Fatal(err)
	}
	if aj.String() != bj.String() {
		t.Fatalf("registry and snapshot JSON differ:\n%s\n%s", aj.String(), bj.String())
	}
}

// Merge golden: counters sum, histograms bucket-merge, gauges re-label.
func TestMergeGolden(t *testing.T) {
	a := workerRegistry(3, 0.005).Snapshot()
	b := workerRegistry(7, 0.05, 0.5).Snapshot()

	var fleet Snapshot
	if err := fleet.Merge(a, L("worker", "w0")); err != nil {
		t.Fatal(err)
	}
	if err := fleet.Merge(b, L("worker", "w1")); err != nil {
		t.Fatal(err)
	}
	out := promText(t, fleet)
	for _, want := range []string{
		"runner_cells_completed_total 10\n",           // 3 + 7
		`fabric_worker_cells_total{worker="self"} 10`, // identity-merged counter
		`runner_worker_utilization{worker="w0"} 0.3`,  // re-labeled gauge
		`runner_worker_utilization{worker="w1"} 0.7`,  //
		`cell_seconds_bucket{le="0.01"} 1`,            // bucket-merge
		`cell_seconds_bucket{le="0.1"} 2`,             //
		`cell_seconds_bucket{le="+Inf"} 3`,            //
		"cell_seconds_sum 0.555\n",                    // 0.005 + (0.05 + 0.5)
		"cell_seconds_count 3\n",                      //
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("merged exposition missing %q:\n%s", want, out)
		}
	}
}

// Merge is associative and commutative at the byte level: every grouping
// and order of the same snapshots encodes — and renders — identically.
func TestMergeAssociativeCommutative(t *testing.T) {
	snaps := []Snapshot{
		workerRegistry(1, 0.004).Snapshot(),
		workerRegistry(2, 0.04, 0.3).Snapshot(),
		workerRegistry(3, 0.4, 3, 0.001).Snapshot(),
	}
	merge := func(order ...int) []byte {
		var s Snapshot
		for _, i := range order {
			if err := s.Merge(snaps[i], L("worker", fmt.Sprintf("w%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		return encode(t, s)
	}
	want := merge(0, 1, 2)
	for _, order := range [][]int{{0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		if got := merge(order...); !bytes.Equal(got, want) {
			t.Fatalf("order %v merged differently:\n%s\n%s", order, got, want)
		}
	}
	// Associativity through an intermediate: A⊕(B⊕C as a decoded remote)
	// is not meaningful for labeled sources, but grouping via a partial
	// target is: ((A into s) then (B into s)) == ((B into s') then (A into s')).
}

// Merging N randomized worker snapshots in any order yields identical
// Prometheus text and identical canonical bytes.
func TestMergeOrderInvarianceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(5)
		snaps := make([]Snapshot, n)
		for i := range snaps {
			r := New()
			for c := 0; c < 1+rng.Intn(4); c++ {
				r.Counter(fmt.Sprintf("ctr_%d_total", rng.Intn(3)), L("kind", fmt.Sprintf("k%d", rng.Intn(2)))).
					Add(uint64(rng.Intn(100)))
			}
			for g := 0; g < rng.Intn(3); g++ {
				r.Gauge(fmt.Sprintf("gauge_%d", rng.Intn(2))).Set(rng.NormFloat64())
			}
			h := r.Histogram("hist_seconds", []float64{0.01, 0.1, 1, 10})
			for o := 0; o < rng.Intn(6); o++ {
				h.Observe(rng.ExpFloat64())
			}
			snaps[i] = r.Snapshot()
		}
		var want []byte
		var wantText string
		for perm := 0; perm < 5; perm++ {
			order := rng.Perm(n)
			var s Snapshot
			for _, i := range order {
				if err := s.Merge(snaps[i], L("worker", fmt.Sprintf("w%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			got := encode(t, s)
			text := promText(t, s)
			if want == nil {
				want, wantText = got, text
				continue
			}
			if !bytes.Equal(got, want) || text != wantText {
				t.Fatalf("trial %d perm %v: merge result depends on order:\n%s\n%s", trial, order, got, want)
			}
		}
	}
}

func TestMergeErrors(t *testing.T) {
	base := workerRegistry(1, 0.5).Snapshot()

	t.Run("bounds mismatch", func(t *testing.T) {
		r := New()
		r.Histogram("cell_seconds", []float64{1, 2, 3}).Observe(1)
		var s Snapshot
		if err := s.Merge(base, L("worker", "a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Merge(r.Snapshot(), L("worker", "b")); err == nil ||
			!strings.Contains(err.Error(), "bounds differ") {
			t.Fatalf("bounds mismatch not rejected: %v", err)
		}
	})
	t.Run("kind mismatch", func(t *testing.T) {
		r := New()
		r.Gauge("runner_cells_completed_total").Set(1)
		var s Snapshot
		if err := s.Merge(base, L("worker", "a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Merge(r.Snapshot(), L("worker", "b")); err == nil ||
			!strings.Contains(err.Error(), "is a counter") {
			t.Fatalf("kind mismatch not rejected: %v", err)
		}
	})
	t.Run("schema mismatch", func(t *testing.T) {
		bad := base
		bad.Schema = SnapshotSchemaVersion + 1
		var s Snapshot
		if err := s.Merge(bad, L("worker", "a")); err == nil ||
			!strings.Contains(err.Error(), "schema") {
			t.Fatalf("schema mismatch not rejected: %v", err)
		}
	})
	t.Run("duplicate source", func(t *testing.T) {
		var s Snapshot
		if err := s.Merge(base, L("worker", "a")); err != nil {
			t.Fatal(err)
		}
		if err := s.Merge(base, L("worker", "a")); err == nil ||
			!strings.Contains(err.Error(), "merged twice") {
			t.Fatalf("double merge of one source not rejected: %v", err)
		}
	})
	t.Run("unusable source", func(t *testing.T) {
		var s Snapshot
		if err := s.Merge(base, L("", "a")); err == nil {
			t.Fatal("empty source key accepted")
		}
		if err := s.Merge(base, L("worker", "")); err == nil {
			t.Fatal("empty source value accepted")
		}
	})
}

func TestDecodeSnapshotRejectsMalformed(t *testing.T) {
	good := encode(t, workerRegistry(1, 0.5).Snapshot())
	for name, mangle := range map[string]func(s string) string{
		"wrong schema":  func(s string) string { return strings.Replace(s, `"schema":1`, `"schema":99`, 1) },
		"bad kind":      func(s string) string { return strings.Replace(s, `"kind":"gauge"`, `"kind":"summary"`, 1) },
		"bad gauge":     func(s string) string { return strings.Replace(s, `"value":"0.1"`, `"value":"zero"`, 1) },
		"not JSON":      func(s string) string { return s[:len(s)/2] },
		"bucket length": func(s string) string { return strings.Replace(s, `"buckets":[0,0,1,0]`, `"buckets":[0,0,1]`, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			mangled := mangle(string(good))
			if mangled == string(good) {
				t.Fatalf("mangle had no effect on %s", good)
			}
			if _, err := DecodeSnapshot([]byte(mangled)); err == nil {
				t.Fatalf("malformed snapshot accepted:\n%s", mangled)
			}
		})
	}
}

// SetSpanIdentity stamps pid and labels onto every span; the trace
// writer renders the pid; EmitSpan passes foreign events through
// verbatim.
func TestSpanIdentity(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	r := New()
	r.SetSpanSink(tw)
	r.SetSpanIdentity(7, L("worker", "w7"))
	r.StartSpan("cell", L("cell", "3")).End()
	r.EmitSpan(SpanEvent{Name: "remote", Start: time.Now(), PID: 42, Labels: []Label{L("worker", "w42")}})
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string            `json:"name"`
		PID  int               `json:"pid"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("trace: %v\n%s", err, sb.String())
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].PID != 7 || events[0].Args["worker"] != "w7" || events[0].Args["cell"] != "3" {
		t.Fatalf("identity not stamped: %+v", events[0])
	}
	if events[1].PID != 42 || events[1].Args["worker"] != "w42" {
		t.Fatalf("emitted span not preserved: %+v", events[1])
	}
}

// SpanCollector buffers until drained and bounds its memory.
func TestSpanCollector(t *testing.T) {
	c := NewSpanCollector(3)
	r := New()
	r.SetSpanSink(Tee(nil, c))
	for i := 0; i < 5; i++ {
		r.StartSpan("s").End()
	}
	if got := c.Drain(); len(got) != 3 {
		t.Fatalf("drained %d spans, want 3 (bounded)", len(got))
	}
	if got := c.Drain(); len(got) != 0 {
		t.Fatalf("second drain returned %d spans", len(got))
	}
	r.StartSpan("again").End()
	if got := c.Drain(); len(got) != 1 {
		t.Fatalf("collector dead after drain: %d", len(got))
	}
}

// Snapshots taken while the registry is hammered are structurally sound
// (run under -race in tier2).
func TestSnapshotConcurrentWithUpdates(t *testing.T) {
	r := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("spin_total", L("w", fmt.Sprintf("%d", w)))
			h := r.Histogram("spin_seconds", []float64{0.01, 0.1})
			g := r.Gauge("spin_depth")
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				c.Inc()
				h.Observe(float64(i%3) * 0.05)
				g.Set(float64(i))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		s := r.Snapshot()
		if _, err := EncodeSnapshot(s); err != nil {
			t.Fatal(err)
		}
		var fleet Snapshot
		if err := fleet.Merge(s, L("worker", "w")); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// Clone is a deep copy: merging into the clone leaves the original's
// canonical encoding untouched.
func TestSnapshotCloneIndependent(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(3)
	r.Histogram("h_seconds", []float64{1, 2}).Observe(0.5)
	r.Gauge("g").Set(1.5)
	s := r.Snapshot()
	before, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := c.Merge(workerRegistry(7, 0.1).Snapshot(), L("worker", "w")); err != nil {
		t.Fatal(err)
	}
	after, err := EncodeSnapshot(s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("merge into clone mutated the original:\nbefore %s\nafter  %s", before, after)
	}
}
