// Package stats provides the summary statistics, distribution functions and
// accumulators used by the fluid-model experiments and the simulators:
// streaming moments, confidence intervals, time-weighted averages, and the
// exact binomial PMF of the correlation model.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates streaming sample moments (Welford's algorithm) so that
// mean and variance are numerically stable even for long simulations.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance (0 when n < 2).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean.
func (s *Summary) CI95() float64 { return 1.959963984540054 * s.StdErr() }

// String formats the summary for experiment logs.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.6g ±%.3g sd=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.CI95(), s.StdDev(), s.min, s.max)
}

// Merge combines another summary into s (parallel reduction; Chan et al.).
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	mean := s.mean + delta*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.n, s.mean, s.m2 = n, mean, m2
}

// State exposes the accumulator's full internal state — observation count,
// running mean, sum of squared deviations (Welford's M2), and extrema — so
// a Summary can cross a process or serialization boundary losslessly.
func (s *Summary) State() (n int, mean, m2, min, max float64) {
	return s.n, s.mean, s.m2, s.min, s.max
}

// SummaryFromState rebuilds a Summary from a State snapshot. The round
// trip SummaryFromState(s.State()) is exact: every derived statistic
// (variance, CI, extrema) is bit-identical to the original's.
func SummaryFromState(n int, mean, m2, min, max float64) Summary {
	return Summary{n: n, mean: mean, m2: m2, min: min, max: max}
}

// TimeWeighted accumulates the time-average of a piecewise-constant signal,
// e.g. the number of downloaders in a swarm over simulated time.
type TimeWeighted struct {
	lastT   float64
	lastV   float64
	area    float64
	started bool
}

// Observe records that the signal took value v at time t and holds it until
// the next call. Times must be non-decreasing.
func (w *TimeWeighted) Observe(t, v float64) {
	if w.started {
		if t < w.lastT {
			panic("stats: TimeWeighted times must be non-decreasing")
		}
		w.area += w.lastV * (t - w.lastT)
	} else {
		w.started = true
	}
	w.lastT, w.lastV = t, v
}

// MeanUntil returns the time average of the signal over [t0, t], where t0 is
// the first observation time. The signal is held at its last value up to t.
func (w *TimeWeighted) MeanUntil(t float64) float64 {
	if !w.started || t <= 0 {
		return 0
	}
	area := w.area + w.lastV*(t-w.lastT)
	return area / t
}

// BinomialCoeff returns C(n, k) as a float64, computed multiplicatively to
// avoid factorial overflow. Returns 0 for k < 0 or k > n.
func BinomialCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// BinomialPMF returns P[X = k] for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p <= 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p >= 1 {
		if k == n {
			return 1
		}
		return 0
	}
	// Work in logs for robustness at large n.
	logPMF := logBinomialCoeff(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
	return math.Exp(logPMF)
}

func logBinomialCoeff(n, k int) float64 {
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}

// logFactorial returns ln(n!) using exact accumulation for small n and
// Stirling's series beyond.
func logFactorial(n int) float64 {
	if n < 2 {
		return 0
	}
	if n < 256 {
		s := 0.0
		for i := 2; i <= n; i++ {
			s += math.Log(float64(i))
		}
		return s
	}
	x := float64(n)
	return x*math.Log(x) - x + 0.5*math.Log(2*math.Pi*x) +
		1/(12*x) - 1/(360*x*x*x)
}

// RelErr returns |got-want| / max(|want|, floor): a relative error with an
// absolute floor to keep comparisons meaningful near zero.
func RelErr(got, want, floor float64) float64 {
	d := math.Abs(got - want)
	scale := math.Abs(want)
	if scale < floor {
		scale = floor
	}
	return d / scale
}
