package eventsim

import (
	"testing"

	"mfdl/internal/scheme"
)

// TestStepAllocsPerEvent pins the event loop's allocation budget: after the
// scratch buffers and the timer heap are warm, processing an event
// allocates O(1) — in practice amortized well under one allocation per
// event (occasional arrivals allocate a peer; everything else reuses
// buffers). A regression to per-event scans or per-event map churn shows
// up here as a multiple-allocations-per-event average.
func TestStepAllocsPerEvent(t *testing.T) {
	for _, sc := range []scheme.SimScheme{scheme.SimCMFSD, scheme.SimMTCD, scheme.SimMTSD} {
		s := newBenchSim(t, benchConfig(sc, 2000))
		for i := 0; i < 500; i++ {
			if !s.stepOnce() {
				t.Fatalf("%v: horizon hit during settle", sc)
			}
		}
		avg := testing.AllocsPerRun(1000, func() {
			if !s.stepOnce() {
				t.Fatalf("%v: horizon hit during measurement", sc)
			}
		})
		if avg > 1 {
			t.Errorf("%v: %v allocations per event, want O(1) (<= 1 amortized)", sc, avg)
		}
	}
}

// TestEventsimSmoke100k processes a slice of events at a 10^5-peer
// population. Skipped in -short runs.
func TestEventsimSmoke100k(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := newBenchSim(t, benchConfig(scheme.SimCMFSD, 100_000))
	for i := 0; i < 20_000; i++ {
		if !s.stepOnce() {
			t.Fatalf("horizon hit at event %d", i)
		}
	}
	if s.dlCount+s.seedCount < 90_000 {
		t.Fatalf("population collapsed to %d", s.dlCount+s.seedCount)
	}
}
