// paper_test asserts the paper's headline conclusions end to end through
// scheme.Evaluate — each test reads like one sentence of the paper's
// abstract or conclusion, so a reviewer can map claims to checks directly.
package mfdl_test

import (
	"math"
	"testing"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/scheme"
)

// paperSystem is the paper's K = 10 server–torrent system at visiting rate
// λ₀ = 1 and file correlation p.
func paperSystem(t *testing.T, p float64) *correlation.Model {
	t.Helper()
	corr, err := correlation.New(10, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return corr
}

// evaluate solves scheme s on sys with the paper's peer parameters and
// allocation ratio ρ (which only CMFSD reads).
func evaluate(t *testing.T, sys *correlation.Model, s scheme.Scheme, rho float64) *metrics.SchemeResult {
	t.Helper()
	res, err := scheme.Evaluate(s, fluid.PaperParams, sys, scheme.Options{Rho: rho})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func avg(t *testing.T, sys *correlation.Model, s scheme.Scheme, rho float64) float64 {
	t.Helper()
	return evaluate(t, sys, s, rho).AvgOnlinePerFile()
}

// "The performance of MTCD is worse than MTSD, especially when the files
// requested are highly interest-correlated." (paper §4.2.1)
func TestClaimMTCDWorseThanMTSDUnderCorrelation(t *testing.T) {
	low := paperSystem(t, 0.05)
	high := paperSystem(t, 1.0)
	gapLow := avg(t, low, scheme.MTCD, 0) - avg(t, low, scheme.MTSD, 0)
	gapHigh := avg(t, high, scheme.MTCD, 0) - avg(t, high, scheme.MTSD, 0)
	if gapLow < 0 {
		t.Fatalf("MTCD beat MTSD at low correlation by %v", -gapLow)
	}
	if gapHigh <= gapLow {
		t.Fatalf("penalty should grow with correlation: %v at p=0.05, %v at p=1", gapLow, gapHigh)
	}
	if math.Abs(gapHigh-18) > 0.1 { // 98 − 80
		t.Fatalf("p=1 gap %v, closed form says 18", gapHigh)
	}
}

// "The scheme of multi-file torrent concurrent downloading … is
// inefficient" / MFCD ≡ MTCD in the fluid model (paper §3.4).
func TestClaimMFCDEquivalentToMTCD(t *testing.T) {
	sys := paperSystem(t, 0.7)
	if d := math.Abs(avg(t, sys, scheme.MFCD, 0) - avg(t, sys, scheme.MTCD, 0)); d > 1e-9 {
		t.Fatalf("MFCD and MTCD differ by %v in the fluid model", d)
	}
}

// "We show via numerical analysis that the download performance could be
// improved by collaboration among the peers in different subtorrents."
// (abstract) — and the improvement is "more obvious for systems with a
// high file correlation p" (§4.2.2).
func TestClaimCollaborationImproves(t *testing.T) {
	gains := map[float64]float64{}
	for _, p := range []float64{0.3, 0.9} {
		sys := paperSystem(t, p)
		mfcd := avg(t, sys, scheme.MFCD, 0)
		collab := avg(t, sys, scheme.CMFSD, 0)
		if collab >= mfcd {
			t.Fatalf("p=%v: CMFSD %v not better than MFCD %v", p, collab, mfcd)
		}
		gains[p] = 1 - collab/mfcd
	}
	if gains[0.9] <= gains[0.3] {
		t.Fatalf("gain should grow with correlation: %v vs %v", gains[0.3], gains[0.9])
	}
	if gains[0.9] < 0.4 {
		t.Fatalf("headline gain at p=0.9 is %v, paper shows ≈47%%", gains[0.9])
	}
}

// "Setting ρ to 0.0 will have the best system performance" (§4.2.2).
func TestClaimRhoZeroOptimal(t *testing.T) {
	sys := paperSystem(t, 0.9)
	best := avg(t, sys, scheme.CMFSD, 0)
	for _, rho := range []float64{0.25, 0.5, 0.75, 1} {
		if v := avg(t, sys, scheme.CMFSD, rho); v < best-1e-6 {
			t.Fatalf("ρ=%v (%v) beat ρ=0 (%v)", rho, v, best)
		}
	}
}

// "For the extreme case when peers do not allocate any bandwidth for the
// virtual seeds (ρ = 1), the system performs as in MFCD" (§4.2.2).
func TestClaimRhoOneIsMFCD(t *testing.T) {
	sys := paperSystem(t, 0.9)
	rho1 := avg(t, sys, scheme.CMFSD, 1)
	mfcd := avg(t, sys, scheme.MFCD, 0)
	if math.Abs(rho1-mfcd) > 0.01*mfcd {
		t.Fatalf("CMFSD(ρ=1) %v vs MFCD %v", rho1, mfcd)
	}
}

// "Peers requesting only one file download faster than peers requesting
// multiple files, and this unfairness is getting more obvious under the
// condition that the value of ρ is large and the file correlation is low"
// (§4.2.2).
func TestClaimUnfairnessAtLowCorrelation(t *testing.T) {
	unfairness := func(p, rho float64) float64 {
		sys := paperSystem(t, p)
		res := evaluate(t, sys, scheme.CMFSD, rho)
		c1, _ := res.Class(1)
		c10, _ := res.Class(10)
		return c10.DownloadPerFile() - c1.DownloadPerFile()
	}
	lowP := unfairness(0.1, 0.9)
	if lowP <= 0 {
		t.Fatalf("no class-1 advantage at p=0.1, ρ=0.9: %v", lowP)
	}
	// More obvious than at high correlation with the same ρ.
	if highP := unfairness(0.9, 0.9); highP >= lowP {
		t.Fatalf("unfairness should shrink with correlation: %v vs %v", highP, lowP)
	}
}
