package obs

import (
	"fmt"
	"io"
	"testing"
)

// BenchmarkNilInstrumentation pins the disabled fast path: resolving
// instruments from a nil registry and using them must cost a handful of
// nil checks and zero allocations per operation.
func BenchmarkNilInstrumentation(b *testing.B) {
	var r *Registry
	c := r.Counter("cells_total")
	g := r.Gauge("inflight")
	h := r.Histogram("lat_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(1)
		h.Observe(0.01)
		sp := r.StartSpan("cell")
		sp.End()
	}
}

// BenchmarkLiveInstrumentation is the attached-registry counterpart, for
// comparison against the nil fast path.
func BenchmarkLiveInstrumentation(b *testing.B) {
	r := New()
	c := r.Counter("cells_total")
	g := r.Gauge("inflight")
	h := r.Histogram("lat_seconds", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Set(1)
		h.Observe(0.01)
	}
}

// BenchmarkTelemetryMergeThroughput measures the coordinator-side cost
// of one fleet telemetry round: decode each worker's pushed snapshot and
// fold it into the merged registry view. The worker registries mirror
// what a real fabric worker ships — a handful of counters, gauges, and
// latency histograms across several label sets — and the encode step
// runs outside the timed region because it is paid by the workers, not
// the coordinator. The custom merges/sec metric counts worker snapshots
// absorbed per second.
func BenchmarkTelemetryMergeThroughput(b *testing.B) {
	const workers = 8
	encoded := make([][]byte, workers)
	for w := 0; w < workers; w++ {
		r := New()
		for cell := 0; cell < 16; cell++ {
			lab := L("cell", fmt.Sprint(cell))
			r.Counter("fabric_cells_completed_total", lab).Add(uint64(3 + cell))
			r.Histogram("fabric_cell_seconds", LatencyBuckets, lab).Observe(0.001 * float64(1+cell))
		}
		r.Counter("fabric_leases_total").Add(uint64(5 + w))
		r.Gauge("fabric_inflight_cells").Set(float64(w % 4))
		r.Histogram("solve_seconds", LatencyBuckets).Observe(0.25)
		buf, err := EncodeSnapshot(r.Snapshot())
		if err != nil {
			b.Fatal(err)
		}
		encoded[w] = buf
	}
	base := New()
	base.Counter("fabric_leases_granted_total").Add(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		merged := base.Snapshot()
		for w, buf := range encoded {
			snap, err := DecodeSnapshot(buf)
			if err != nil {
				b.Fatal(err)
			}
			if err := merged.Merge(snap, L("worker", fmt.Sprintf("w%d", w))); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(workers)*float64(b.N)/b.Elapsed().Seconds(), "merges/sec")
}

// BenchmarkSpanWithTrace measures a recorded span end to end.
func BenchmarkSpanWithTrace(b *testing.B) {
	r := New()
	r.SetSpanSink(NewTraceWriter(io.Discard))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := r.StartSpan("cell", L("cell", "i"))
		sp.End()
	}
}
