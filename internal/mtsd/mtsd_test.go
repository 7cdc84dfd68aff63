package mtsd

import (
	"math"
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
)

func model(t *testing.T, p float64) *Model {
	t.Helper()
	corr, err := correlation.New(10, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(fluid.PaperParams, corr)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	corr, _ := correlation.New(10, 0.5, 1)
	if _, err := New(fluid.Params{}, corr); err == nil {
		t.Fatal("zero params accepted")
	}
	if _, err := New(fluid.PaperParams, nil); err == nil {
		t.Fatal("nil correlation accepted")
	}
}

func TestSingleDownloadTimePaperValue(t *testing.T) {
	m := model(t, 0.5)
	tDl, err := m.SingleDownloadTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tDl-60) > 1e-12 {
		t.Fatalf("T = %v, want 60", tDl)
	}
}

func TestEvaluatePerClassScaling(t *testing.T) {
	m := model(t, 0.5)
	res, err := m.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 10 {
		t.Fatalf("classes = %d", len(res.Classes))
	}
	for _, c := range res.Classes {
		// Per-file times are class-independent under MTSD.
		if math.Abs(c.DownloadPerFile()-60) > 1e-9 {
			t.Fatalf("class %d download per file %v, want 60", c.Class, c.DownloadPerFile())
		}
		if math.Abs(c.OnlinePerFile()-80) > 1e-9 {
			t.Fatalf("class %d online per file %v, want 80", c.Class, c.OnlinePerFile())
		}
	}
}

func TestAvgOnlinePerFileFlatInP(t *testing.T) {
	// The MTSD headline metric does not depend on the correlation p.
	for _, p := range []float64{0.05, 0.3, 0.7, 1.0} {
		res, err := model(t, p).Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if got := res.AvgOnlinePerFile(); math.Abs(got-80) > 1e-9 {
			t.Fatalf("p=%v avg online per file %v, want 80", p, got)
		}
	}
}

func TestNotUploadConstrainedRejected(t *testing.T) {
	corr, _ := correlation.New(10, 0.5, 1)
	m, err := New(fluid.Params{Mu: 0.1, Eta: 0.5, Gamma: 0.05}, corr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Evaluate(); err == nil {
		t.Fatal("γ<μ accepted")
	}
}
