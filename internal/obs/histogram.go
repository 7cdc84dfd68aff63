package obs

import (
	"math"
	"sort"
	"time"
)

// LatencyBuckets are the default upper bounds (in seconds) for latency
// histograms: roughly exponential from 100µs to a minute. A steady-state
// solve takes single-digit milliseconds, a replicated simulation cell
// hundreds, and a tracker request microseconds — the range covers all
// three with a few buckets of resolution each.
var LatencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// normalizeBounds sorts, dedups and strips non-finite bucket bounds. An
// empty list falls back to LatencyBuckets.
func normalizeBounds(bounds []float64) []float64 {
	out := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		out = append(out, LatencyBuckets...)
	}
	sort.Float64s(out)
	dedup := out[:1]
	for _, b := range out[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return dedup
}

// Histogram counts observations into fixed buckets (plus an implicit
// +Inf overflow bucket) and tracks their sum. Observations are atomic;
// snapshots taken concurrently with observations are internally
// consistent enough for monitoring (each bucket count is exact, the
// total is the bucket sum). All methods are nil-safe no-ops on a nil
// receiver.
type Histogram struct {
	bounds []float64 // sorted upper bounds, finite
	counts []counterCell
	sum    Gauge
}

// counterCell pads nothing — it exists so the counts slice is addressable
// per bucket without sharing a Counter allocation.
type counterCell struct {
	c Counter
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]counterCell, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].c.Inc()
	h.sum.Add(v)
}

// Since observes the elapsed wall-clock since start, in seconds.
func (h *Histogram) Since(start time.Time) {
	if h != nil {
		h.Observe(time.Since(start).Seconds())
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].c.Value()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// BucketCounts returns a snapshot of the per-bucket counts; the last
// element is the +Inf overflow bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].c.Value()
	}
	return out
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket
// counts by linear interpolation within the containing bucket, the same
// estimate Prometheus' histogram_quantile computes. Values in the +Inf
// bucket clamp to the largest finite bound. Returns NaN for an empty
// histogram or out-of-range q.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	return bucketQuantile(h.bounds, h.BucketCounts(), q)
}

// bucketQuantile is the estimator behind Histogram.Quantile, shared with
// snapshot rendering: counts are per-bucket (non-cumulative), the last
// element the +Inf overflow bucket.
func bucketQuantile(bounds []float64, counts []uint64, q float64) float64 {
	if q < 0 || q > 1 || math.IsNaN(q) || len(bounds) == 0 {
		return math.NaN()
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return math.NaN()
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i == len(counts)-1 {
			// +Inf bucket: clamp to the largest finite bound.
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return bounds[len(bounds)-1]
}
