// Package metrics defines the shared performance-metric types all four
// downloading schemes report, and the aggregation rule the paper uses:
// "average online time per file = the sum of the online time for all the
// peers divided by the total number of files the peers have requested"
// (Section 4.2.1).
//
// Conventions: a class-i user requests i files. DownloadTime and OnlineTime
// are the user's wall-clock residence times (download phase, and download
// plus seeding). The per-file variants divide by the number of files i.
package metrics

import (
	"errors"
	"fmt"
	"math"
)

// PerClass holds the steady-state times for peers of one class.
type PerClass struct {
	// Class is i, the number of files the user requested (1-based).
	Class int
	// EntryRate is λ_i, the arrival rate of this class (users per time
	// unit). Classes with zero entry rate carry NaN times.
	EntryRate float64
	// DownloadTime is the user's expected wall-clock time in the
	// downloading phase.
	DownloadTime float64
	// OnlineTime is DownloadTime plus the expected seeding time.
	OnlineTime float64
}

// DownloadPerFile returns DownloadTime / Class.
func (c PerClass) DownloadPerFile() float64 { return c.DownloadTime / float64(c.Class) }

// OnlinePerFile returns OnlineTime / Class.
func (c PerClass) OnlinePerFile() float64 { return c.OnlineTime / float64(c.Class) }

// SchemeResult is the steady-state evaluation of one downloading scheme.
type SchemeResult struct {
	// Scheme is the scheme name ("MTCD", "MTSD", "MFCD", "CMFSD").
	Scheme string
	// Classes holds per-class metrics for classes 1..K in order.
	Classes []PerClass
}

// Validate checks structural consistency.
func (r *SchemeResult) Validate() error {
	if r.Scheme == "" {
		return errors.New("metrics: empty scheme name")
	}
	for idx, c := range r.Classes {
		if c.Class != idx+1 {
			return fmt.Errorf("metrics: class at index %d has Class=%d", idx, c.Class)
		}
		if c.EntryRate < 0 {
			return fmt.Errorf("metrics: class %d negative entry rate", c.Class)
		}
		if c.EntryRate > 0 && (c.DownloadTime < 0 || c.OnlineTime < c.DownloadTime) {
			return fmt.Errorf("metrics: class %d inconsistent times (dl=%v online=%v)",
				c.Class, c.DownloadTime, c.OnlineTime)
		}
	}
	return nil
}

// Class returns the PerClass entry for class i (1-based), or false.
func (r *SchemeResult) Class(i int) (PerClass, bool) {
	if i < 1 || i > len(r.Classes) {
		return PerClass{}, false
	}
	return r.Classes[i-1], true
}

// perFileAverage is the paper's aggregation of f over the classes:
// Σ λ_i·f(c_i) / Σ i·λ_i over the classes with a positive entry rate λ_i.
// When no class has one, it returns class 1's per-file f: the limit as
// p → 0+, where λ₁ ∝ p carries all the weight. A result with no classes
// averages to NaN.
func (r *SchemeResult) perFileAverage(f func(PerClass) float64) float64 {
	num, files := 0.0, 0.0
	for _, c := range r.Classes {
		if c.EntryRate <= 0 {
			continue
		}
		num += c.EntryRate * f(c)
		files += c.EntryRate * float64(c.Class)
	}
	switch {
	case files != 0:
		return num / files
	case len(r.Classes) == 0:
		return math.NaN()
	}
	return f(r.Classes[0]) / float64(r.Classes[0].Class)
}

// AvgOnlinePerFile returns the paper's headline metric: total user online
// time per unit time, divided by the total file-request rate.
func (r *SchemeResult) AvgOnlinePerFile() float64 {
	return r.perFileAverage(func(c PerClass) float64 { return c.OnlineTime })
}

// AvgDownloadPerFile is the same aggregation over download times.
func (r *SchemeResult) AvgDownloadPerFile() float64 {
	return r.perFileAverage(func(c PerClass) float64 { return c.DownloadTime })
}
