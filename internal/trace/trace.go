// Package trace records named time series from simulations and fluid
// integrations — population trajectories, ρ evolution — and compares
// them. It backs the transient (flash-crowd) experiments, where
// the object of interest is the path to steady state rather than the fixed
// point itself.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Series is one named time series with strictly increasing times.
type Series struct {
	Name string
	T    []float64
	V    []float64
}

// Append adds one sample; times must be non-decreasing (equal times
// overwrite the last value).
func (s *Series) Append(t, v float64) error {
	if n := len(s.T); n > 0 {
		last := s.T[n-1]
		if t < last {
			return fmt.Errorf("trace: time %v before last %v in %q", t, last, s.Name)
		}
		if t == last {
			s.V[n-1] = v
			return nil
		}
	}
	s.T = append(s.T, t)
	s.V = append(s.V, v)
	return nil
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.T) }

// At linearly interpolates the series at time t, clamping outside the
// recorded range. NaN for an empty series.
func (s *Series) At(t float64) float64 {
	n := len(s.T)
	if n == 0 {
		return math.NaN()
	}
	if t <= s.T[0] {
		return s.V[0]
	}
	if t >= s.T[n-1] {
		return s.V[n-1]
	}
	i := sort.SearchFloat64s(s.T, t)
	// s.T[i-1] < t <= s.T[i]
	t0, t1 := s.T[i-1], s.T[i]
	v0, v1 := s.V[i-1], s.V[i]
	return v0 + (v1-v0)*(t-t0)/(t1-t0)
}

// Max returns the largest value and its time (NaNs for empty series).
func (s *Series) Max() (t, v float64) {
	if len(s.T) == 0 {
		return math.NaN(), math.NaN()
	}
	t, v = s.T[0], s.V[0]
	for i := range s.T {
		if s.V[i] > v {
			t, v = s.T[i], s.V[i]
		}
	}
	return t, v
}

// Final returns the last value (NaN for an empty series).
func (s *Series) Final() float64 {
	if len(s.V) == 0 {
		return math.NaN()
	}
	return s.V[len(s.V)-1]
}

// RMSDistance compares two series by sampling both at n evenly spaced
// times over their overlapping range and returning the root-mean-square
// difference. An error is returned when the ranges do not overlap.
func RMSDistance(a, b *Series, n int) (float64, error) {
	if a.Len() == 0 || b.Len() == 0 {
		return 0, errors.New("trace: empty series")
	}
	lo := math.Max(a.T[0], b.T[0])
	hi := math.Min(a.T[a.Len()-1], b.T[b.Len()-1])
	if hi <= lo {
		return 0, errors.New("trace: series do not overlap in time")
	}
	if n < 2 {
		n = 2
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		t := lo + (hi-lo)*float64(i)/float64(n-1)
		d := a.At(t) - b.At(t)
		sum += d * d
	}
	return math.Sqrt(sum / float64(n)), nil
}

// Recorder collects several series under one clock.
type Recorder struct {
	series map[string]*Series
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{series: map[string]*Series{}}
}

// Record appends a sample to the named series, creating it on first use.
func (r *Recorder) Record(name string, t, v float64) error {
	s, ok := r.series[name]
	if !ok {
		s = &Series{Name: name}
		r.series[name] = s
	}
	return s.Append(t, v)
}

// Series returns the named series, or nil.
func (r *Recorder) Series(name string) *Series { return r.series[name] }
