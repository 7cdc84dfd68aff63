package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("requests_total", L("endpoint", "announce"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) interns to the same instrument, in any order.
	c2 := r.Counter("requests_total", Label{Key: "endpoint", Value: "announce"})
	if c2 != c {
		t.Fatal("same series returned a different counter")
	}
	g := r.Gauge("workers")
	g.Set(8)
	g.Add(-2)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %g, want 6", got)
	}
}

func TestLabelOrderInterning(t *testing.T) {
	r := New()
	a := r.Counter("m_total", L("b", "2"), L("a", "1"))
	b := r.Counter("m_total", L("a", "1"), L("b", "2"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	other := r.Counter("m_total", L("a", "1"), L("b", "3"))
	if other == a {
		t.Fatal("different label values shared a series")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", []float64{0.1, 0.2, 0.4})
	for _, v := range []float64{0.05, 0.05, 0.15, 0.3, 0.3, 0.3, 0.5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 7 {
		t.Fatalf("count = %d, want 7", got)
	}
	if got, want := h.Sum(), 0.05+0.05+0.15+0.3+0.3+0.3+0.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("sum = %g, want %g", got, want)
	}
	counts := h.BucketCounts()
	want := []uint64{2, 1, 3, 1}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], want[i], want)
		}
	}
	// Median: target 3.5 of 7 lands in the (0.2, 0.4] bucket.
	q := h.Quantile(0.5)
	if q <= 0.2 || q > 0.4 {
		t.Fatalf("p50 = %g, want within (0.2, 0.4]", q)
	}
	// Everything in the overflow bucket clamps to the top finite bound.
	if q := h.Quantile(1); q != 0.4 {
		t.Fatalf("p100 = %g, want clamp to 0.4", q)
	}
	if !math.IsNaN((&Histogram{bounds: []float64{1}, counts: make([]counterCell, 2)}).Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
}

func TestHistogramBoundsNormalized(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", []float64{0.2, 0.1, 0.2, math.NaN(), math.Inf(1)})
	want := []float64{0.1, 0.2}
	got := h.bounds
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("bounds = %v, want %v", got, want)
	}
	// Empty bounds fall back to the default latency buckets.
	d := r.Histogram("d_seconds", nil)
	if len(d.bounds) != len(LatencyBuckets) {
		t.Fatalf("default bounds = %v", d.bounds)
	}
}

func TestNilRegistryAndInstrumentsAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_seconds", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments recorded values")
	}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("nil histogram quantile should be NaN")
	}
	sp := r.StartSpan("phase", L("k", "v"))
	if sp.sink != nil {
		t.Fatal("nil registry span is active")
	}
	sp.End() // must not panic
	r.SetSpanSink(nil)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry prometheus: %q, %v", sb.String(), err)
	}
	sb.Reset()
	if err := r.WriteJSON(&sb); err != nil || !strings.Contains(sb.String(), "counters") {
		t.Fatalf("nil registry json: %q, %v", sb.String(), err)
	}
}

func TestSpanWithoutSinkIsInert(t *testing.T) {
	r := New()
	sp := r.StartSpan("phase")
	if sp.sink != nil {
		t.Fatal("span active with no sink attached")
	}
	sp.End()
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, f := range []func(){
		func() { r.Counter("bad name") },
		func() { r.Counter("") },
		func() { r.Counter("1leading") },
		func() { r.Counter("ok_total", L("bad key", "v")) },
		func() { r.Counter("dup_total", L("k", "a"), L("k", "b")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
	// Kind clash: registering an existing gauge name as a counter panics.
	r2 := New()
	r2.Gauge("kindclash")
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind clash accepted")
			}
		}()
		r2.Counter("kindclash")
	}()
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// interning, counting, observing, exporting — and is run under -race by
// tier2.
func TestRegistryConcurrency(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("hits_total", L("worker", "shared")).Inc()
				r.Gauge("depth").Set(float64(i))
				r.Histogram("lat_seconds", nil, L("worker", "shared")).Observe(float64(i) / 1000)
				if i%50 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hits_total", L("worker", "shared")).Value(); got != 16*200 {
		t.Fatalf("hits = %d, want %d", got, 16*200)
	}
	if got := r.Histogram("lat_seconds", nil, L("worker", "shared")).Count(); got != 16*200 {
		t.Fatalf("observations = %d, want %d", got, 16*200)
	}
}
