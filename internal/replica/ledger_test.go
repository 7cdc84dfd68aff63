package replica

import (
	"math"
	"strings"
	"testing"
)

// TestLedger charges one completed and one aborted departure and checks
// every total the Outcome carries, and that Sample leaves out the
// bandwidth class nobody left.
func TestLedger(t *testing.T) {
	var out Outcome
	l := NewLedger(&out, 2, "a", "b")
	l.Arrive()
	l.Arrive()
	l.Arrive()
	l.Observe(0, 2, 1)
	l.Depart(Departure{Class: 2, BwClass: 0, Online: 10, Download: 6, Files: 2, Rho: 0.5, CountRho: true})
	l.Observe(5, 1, 2)
	l.Depart(Departure{Class: 2, BwClass: 0, Online: 3, Download: 3, Files: 1, Aborted: true, Rho: 1})
	l.Finish(10)

	if out.ArrivedUsers != 3 || out.CompletedUsers != 1 || out.AbortedUsers != 1 {
		t.Errorf("arrived/completed/aborted = %d/%d/%d, want 3/1/1", out.ArrivedUsers, out.CompletedUsers, out.AbortedUsers)
	}
	if out.AvgOnlinePerFile != 13.0/3 || out.AvgDownloadPerFile != 9.0/3 {
		t.Errorf("per-file online/download = %v/%v, want 13/3 and 3", out.AvgOnlinePerFile, out.AvgDownloadPerFile)
	}
	if out.MeanDownloaders != 1.5 || out.MeanSeeds != 1.5 {
		t.Errorf("mean populations %v/%v, want 1.5/1.5", out.MeanDownloaders, out.MeanSeeds)
	}
	if out.FinalRho.N() != 1 || out.FinalRho.Mean() != 0.5 {
		t.Errorf("final ρ over %d peers, mean %v; want the one counted 0.5", out.FinalRho.N(), out.FinalRho.Mean())
	}
	if c := out.Classes[1]; c.Class != 2 || c.Completed != 1 || c.OnlineTime.N() != 2 || out.Classes[0].OnlineTime.N() != 0 {
		t.Errorf("class stats %+v", out.Classes)
	}
	if b := out.Bandwidth[0]; b.Name != "a" || b.Completed != 1 || b.DownloadTime.N() != 2 {
		t.Errorf("bandwidth class a %+v", b)
	}
	s := out.Sample()
	for key := range s.Values {
		if strings.HasPrefix(key, "bw/b/") || strings.HasPrefix(key, "class/1/") {
			t.Errorf("sample carries %s for a group nobody left", key)
		}
	}
	if _, ok := s.Values[BandwidthKey("a", OnlinePerFile)]; !ok {
		t.Error("sample lost bandwidth class a")
	}

	var empty Outcome
	none := NewLedger(&empty, 1)
	none.Finish(10)
	if !math.IsNaN(empty.AvgOnlinePerFile) || !math.IsNaN(empty.AvgDownloadPerFile) {
		t.Errorf("no departures: per-file %v/%v, want NaN", empty.AvgOnlinePerFile, empty.AvgDownloadPerFile)
	}
}
