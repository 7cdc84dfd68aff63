package metrics

import (
	"math"
	"testing"
)

func twoClassResult() *SchemeResult {
	return &SchemeResult{
		Scheme: "TEST",
		Classes: []PerClass{
			{Class: 1, EntryRate: 2, DownloadTime: 60, OnlineTime: 80},
			{Class: 2, EntryRate: 1, DownloadTime: 120, OnlineTime: 140},
		},
	}
}

func TestPerFileHelpers(t *testing.T) {
	c := PerClass{Class: 4, DownloadTime: 100, OnlineTime: 120}
	if c.DownloadPerFile() != 25 || c.OnlinePerFile() != 30 {
		t.Fatalf("per-file = %v/%v", c.DownloadPerFile(), c.OnlinePerFile())
	}
}

func TestAvgOnlinePerFile(t *testing.T) {
	r := twoClassResult()
	// (2·80 + 1·140) / (2·1 + 1·2) = 300/4 = 75.
	if got := r.AvgOnlinePerFile(); math.Abs(got-75) > 1e-12 {
		t.Fatalf("avg online per file = %v, want 75", got)
	}
	// (2·60 + 1·120) / 4 = 60.
	if got := r.AvgDownloadPerFile(); math.Abs(got-60) > 1e-12 {
		t.Fatalf("avg download per file = %v, want 60", got)
	}
}

func TestAvgSkipsZeroRateClasses(t *testing.T) {
	r := &SchemeResult{
		Scheme: "TEST",
		Classes: []PerClass{
			{Class: 1, EntryRate: 0, DownloadTime: math.NaN(), OnlineTime: math.NaN()},
			{Class: 2, EntryRate: 1, DownloadTime: 100, OnlineTime: 120},
		},
	}
	if got := r.AvgOnlinePerFile(); math.Abs(got-60) > 1e-12 {
		t.Fatalf("avg = %v, want 60", got)
	}
}

func TestAvgEmptyIsNaN(t *testing.T) {
	r := &SchemeResult{Scheme: "TEST"}
	if !math.IsNaN(r.AvgOnlinePerFile()) || !math.IsNaN(r.AvgDownloadPerFile()) {
		t.Fatal("empty result should average to NaN")
	}
}

// With no class arriving (p = 0) the average is class 1's per-file time,
// its limit as p → 0+, whatever the other classes carry.
func TestAvgAllZeroWeightIsClassOne(t *testing.T) {
	r := twoClassResult()
	r.Classes[0].EntryRate, r.Classes[1].EntryRate = 0, 0
	r.Classes[1].OnlineTime = math.NaN()
	if got := r.AvgOnlinePerFile(); got != 80 {
		t.Fatalf("avg online = %v, want class 1's 80", got)
	}
	if got := r.AvgDownloadPerFile(); got != 60 {
		t.Fatalf("avg download = %v, want class 1's 60", got)
	}
}

func TestClassLookup(t *testing.T) {
	r := twoClassResult()
	c, ok := r.Class(2)
	if !ok || c.Class != 2 {
		t.Fatal("class 2 lookup failed")
	}
	if _, ok := r.Class(0); ok {
		t.Fatal("class 0 lookup succeeded")
	}
	if _, ok := r.Class(3); ok {
		t.Fatal("class 3 lookup succeeded")
	}
}

func TestValidate(t *testing.T) {
	if err := twoClassResult().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := twoClassResult()
	bad.Scheme = ""
	if bad.Validate() == nil {
		t.Fatal("empty scheme accepted")
	}
	bad = twoClassResult()
	bad.Classes[1].Class = 5
	if bad.Validate() == nil {
		t.Fatal("misnumbered class accepted")
	}
	bad = twoClassResult()
	bad.Classes[0].OnlineTime = 10 // below download time
	if bad.Validate() == nil {
		t.Fatal("online < download accepted")
	}
	bad = twoClassResult()
	bad.Classes[0].EntryRate = -1
	if bad.Validate() == nil {
		t.Fatal("negative rate accepted")
	}
}
