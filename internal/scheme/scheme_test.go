package scheme

import (
	"math"
	"reflect"
	"testing"

	"mfdl/internal/cmfsd"
	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/mtcd"
	"mfdl/internal/mtsd"
)

func model(t *testing.T, p float64) *correlation.Model {
	t.Helper()
	corr, err := correlation.New(10, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	return corr
}

func TestParse(t *testing.T) {
	for _, sc := range Schemes {
		got, err := Parse(string(sc))
		if err != nil || got != sc {
			t.Fatalf("Parse(%q) = %v, %v", sc, got, err)
		}
	}
	if _, err := Parse("FTP"); err == nil {
		t.Fatal("unknown scheme parsed")
	}
}

// The factory must agree exactly with the concrete constructors it wraps.
func TestNewMatchesConcreteConstructors(t *testing.T) {
	corr := model(t, 0.9)
	params := fluid.PaperParams

	mc, err := mtcd.New(params, corr)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mtsd.New(params, corr)
	if err != nil {
		t.Fatal(err)
	}
	mf, err := cmfsd.New(params, corr, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	want := map[Scheme]float64{}
	for sc, m := range map[Scheme]Model{MTCD: mc, MTSD: ms, CMFSD: mf} {
		res, err := m.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		want[sc] = res.AvgOnlinePerFile()
	}
	want[MFCD] = want[MTCD] // MFCD ≡ MTCD in the fluid model

	for _, sc := range Schemes {
		res, err := Evaluate(sc, params, corr, Options{Rho: 0.3})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if res.Scheme != string(sc) {
			t.Fatalf("%s: result labelled %q", sc, res.Scheme)
		}
		if got := res.AvgOnlinePerFile(); got != want[sc] {
			t.Fatalf("%s: factory %v != concrete %v", sc, got, want[sc])
		}
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	corr := model(t, 0.5)
	if _, err := New(Scheme("bogus"), fluid.PaperParams, corr, Options{}); err == nil {
		t.Fatal("bogus scheme constructed")
	}
	bad := fluid.Params{Mu: -1, Eta: 0.5, Gamma: 0.05}
	for _, sc := range Schemes {
		if _, err := New(sc, bad, corr, Options{}); err == nil {
			t.Fatalf("%s accepted μ<0", sc)
		}
	}
	if _, err := New(CMFSD, fluid.PaperParams, corr, Options{Rho: 2}); err == nil {
		t.Fatal("CMFSD accepted ρ=2")
	}
}

func TestEvaluateAllPositive(t *testing.T) {
	corr := model(t, 0.7)
	for _, sc := range Schemes {
		res, err := Evaluate(sc, fluid.PaperParams, corr, Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if v := res.AvgOnlinePerFile(); math.IsNaN(v) || v <= 0 {
			t.Fatalf("%s: bad average %v", sc, v)
		}
	}
}

// A system with unset peer parameters, or a correlation outside [0, 1], is
// refused before any scheme is solved.
func TestEvaluateRejectsBadSystem(t *testing.T) {
	corr := model(t, 0.9)
	for _, sc := range Schemes {
		if _, err := Evaluate(sc, fluid.Params{}, corr, Options{}); err == nil {
			t.Fatalf("%s accepted zero parameters", sc)
		}
	}
	if _, err := correlation.New(10, 2, 1); err == nil {
		t.Fatal("p=2 accepted")
	}
}

func TestEvaluateAllSchemes(t *testing.T) {
	corr := model(t, 0.9)
	for _, sc := range Schemes {
		res, err := Evaluate(sc, fluid.PaperParams, corr, Options{Rho: 0.1})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if string(sc) != res.Scheme {
			t.Fatalf("scheme label %q for %s", res.Scheme, sc)
		}
		if avg := res.AvgOnlinePerFile(); math.IsNaN(avg) || avg <= 0 {
			t.Fatalf("%s: bad average %v", sc, avg)
		}
	}
}

func TestEvaluateUnknownScheme(t *testing.T) {
	if _, err := Evaluate(Scheme("bogus"), fluid.PaperParams, model(t, 0.5), Options{}); err == nil {
		t.Fatal("bogus scheme evaluated")
	}
}

// Section 3.4: MFCD is equivalent to MTCD in the fluid model.
func TestMFCDEqualsMTCDInFluidModel(t *testing.T) {
	corr := model(t, 0.7)
	a, err := Evaluate(MTCD, fluid.PaperParams, corr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(MFCD, fluid.PaperParams, corr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.AvgOnlinePerFile()-b.AvgOnlinePerFile()) > 1e-9 {
		t.Fatalf("MFCD %v != MTCD %v", b.AvgOnlinePerFile(), a.AvgOnlinePerFile())
	}
}

// At p = 0 no user requests a second file, and every scheme is the single
// torrent: T + 1/γ = 80 online and T = 60 downloading per file at the
// paper's parameters. CMFSD there is MTSD under its own name, θ included,
// and still refuses every ρ and parameter cmfsd.New refuses.
func TestSingleTorrentLimitAtPZero(t *testing.T) {
	corr := model(t, 0)
	for _, sc := range Schemes {
		res, err := Evaluate(sc, fluid.PaperParams, corr, Options{Rho: 0.5})
		if err != nil {
			t.Fatalf("%s: %v", sc, err)
		}
		if res.Scheme != string(sc) || res.AvgOnlinePerFile() != 80 || res.AvgDownloadPerFile() != 60 {
			t.Errorf("%s at p = 0: %q reads %v online, %v download per file; want 80 and 60",
				sc, res.Scheme, res.AvgOnlinePerFile(), res.AvgDownloadPerFile())
		}
	}
	want, err := Evaluate(MTSD, fluid.PaperParams, corr, Options{Theta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(CMFSD, fluid.PaperParams, corr, Options{Theta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Classes, want.Classes) {
		t.Errorf("CMFSD at p = 0, θ = 0.001: %+v, want MTSD's %+v", got.Classes, want.Classes)
	}
	for _, bad := range []struct {
		params fluid.Params
		corr   *correlation.Model
		opts   Options
	}{
		{fluid.PaperParams, corr, Options{Rho: 2}},
		{fluid.PaperParams, corr, Options{Rho: math.NaN()}},
		{fluid.PaperParams, corr, Options{Theta: -1}},
		{fluid.Params{}, corr, Options{}},
		{fluid.PaperParams, nil, Options{}},
	} {
		if _, err := New(CMFSD, bad.params, bad.corr, bad.opts); err == nil {
			t.Errorf("CMFSD at p = 0 accepted %+v, %+v", bad.params, bad.opts)
		}
	}
}
