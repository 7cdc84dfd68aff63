package runner

import (
	"context"
	"sync"
	"testing"

	"mfdl/internal/fluid"
	"mfdl/internal/obs"
	"mfdl/internal/rng"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// observed returns a cache over disk (nil for memory only) together with a
// reader of its registry's counters by name, less the _total suffix.
func observed(disk *diskcache.Store) (*Cache, func(name string) uint64) {
	reg := obs.New()
	c := NewDiskCache(disk).WithObs(reg)
	return c, func(name string) uint64 { return reg.Counter(name + "_total").Value() }
}

func TestCacheSolvesOnce(t *testing.T) {
	c, count := observed(nil)
	k := Key{Scheme: scheme.MTSD, Params: fluid.PaperParams, K: 10, P: 0.9, Lambda0: 1}
	a, err := c.Evaluate(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Evaluate(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("second Evaluate did not return the cached result pointer")
	}
	if h, m := count("solvecache_hits"), count("solvecache_misses"); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d", h, m)
	}
}

// Sweeping ρ under a scheme that ignores ρ must cost exactly one solve.
func TestCacheNormalizesRho(t *testing.T) {
	c, count := observed(nil)
	base := Key{Scheme: scheme.MTCD, Params: fluid.PaperParams, K: 10, P: 0.9, Lambda0: 1}
	for _, rho := range []float64{0, 0.25, 0.5, 1} {
		k := base
		k.Rho = rho
		if _, err := c.Evaluate(k); err != nil {
			t.Fatal(err)
		}
	}
	if h, m := count("solvecache_hits"), count("solvecache_misses"); m != 1 || h != 3 {
		t.Fatalf("hits=%d misses=%d, want 3/1", h, m)
	}
	// CMFSD does depend on ρ: distinct solves.
	cm, count := observed(nil)
	for _, rho := range []float64{0, 0.5} {
		k := Key{Scheme: scheme.CMFSD, Params: fluid.PaperParams, K: 5, P: 0.9, Lambda0: 1, Rho: rho}
		if _, err := cm.Evaluate(k); err != nil {
			t.Fatal(err)
		}
	}
	if m := count("solvecache_misses"); m != 2 {
		t.Fatalf("CMFSD rho collapsed: misses=%d", m)
	}
}

func TestCacheErrorsAreCachedToo(t *testing.T) {
	c := NewCache()
	k := Key{Scheme: scheme.MTSD, Params: fluid.PaperParams, K: 10, P: 2, Lambda0: 1}
	if _, err := c.Evaluate(k); err == nil {
		t.Fatal("p=2 accepted")
	}
	if _, err := c.Evaluate(k); err == nil {
		t.Fatal("cached error lost")
	}
}

// Concurrent workers hammering the same key must agree on one result.
func TestCacheConcurrent(t *testing.T) {
	c, count := observed(nil)
	k := Key{Scheme: scheme.CMFSD, Params: fluid.PaperParams, K: 5, P: 0.8, Lambda0: 1, Rho: 0.3}
	var wg sync.WaitGroup
	results := make([]float64, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := c.Evaluate(k)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res.AvgOnlinePerFile()
		}(i)
	}
	wg.Wait()
	for _, v := range results[1:] {
		if v != results[0] {
			t.Fatalf("divergent cached results: %v vs %v", v, results[0])
		}
	}
	if m := count("solvecache_misses"); m != 1 {
		t.Fatalf("misses=%d, want 1", m)
	}
}

// A cache plugged into Run turns an n-cell grid over an insensitive
// dimension into one solve without changing any result.
func TestCacheInsideRun(t *testing.T) {
	g, err := NewGrid(Dim{Name: "rho", Values: Linspace(0, 1, 9)})
	if err != nil {
		t.Fatal(err)
	}
	c, count := observed(nil)
	out, err := Run(context.Background(), g,
		func(ctx context.Context, p Point, src *rng.Source) (float64, error) {
			rho, _ := p.Value("rho")
			res, err := c.Evaluate(Key{
				Scheme: scheme.MTSD, Params: fluid.PaperParams,
				K: 10, P: 0.9, Lambda0: 1, Rho: rho,
			})
			if err != nil {
				return 0, err
			}
			return res.AvgOnlinePerFile(), nil
		}, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out[1:] {
		if v != out[0] {
			t.Fatalf("MTSD varied with rho: %v", out)
		}
	}
	if m := count("solvecache_misses"); m != 1 {
		t.Fatalf("misses=%d, want 1", m)
	}
}

// Two MTCD keys differing only in ρ must share a fingerprint (ρ is dead
// under MTCD); under CMFSD they must not.
func TestFingerprintNormalizesRho(t *testing.T) {
	a := Key{Scheme: scheme.MTCD, Params: fluid.PaperParams, K: 10, P: 0.9, Lambda0: 1, Rho: 0.3}
	b := a
	b.Rho = 0.7
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("MTCD fingerprint depends on rho")
	}
	a.Scheme, b.Scheme = scheme.CMFSD, scheme.CMFSD
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("CMFSD fingerprint ignores rho")
	}
	c := a
	c.Params.Mu = a.Params.Mu * (1 + 1e-15)
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint not bit-exact in mu")
	}
}

// A result solved by one Cache must be decoded — not re-solved — by a
// fresh Cache sharing the same directory: the cross-process contract.
func TestDiskCacheCrossProcess(t *testing.T) {
	dir := t.TempDir()
	d1, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Scheme: scheme.CMFSD, Params: fluid.PaperParams, K: 5, P: 0.8, Lambda0: 1, Rho: 0.3}
	first, cold := observed(d1)
	a, err := first.Evaluate(k)
	if err != nil {
		t.Fatal(err)
	}
	if h, m, st := cold("diskcache_hits"), cold("diskcache_misses"), cold("diskcache_stores"); h != 0 || m != 1 || st != 1 {
		t.Fatalf("cold disk tier: %d hits, %d misses, %d stores", h, m, st)
	}
	d2, err := diskcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, warm := observed(d2)
	b, err := second.Evaluate(k)
	if err != nil {
		t.Fatal(err)
	}
	if m, dh, dm := warm("solvecache_misses"), warm("diskcache_hits"), warm("diskcache_misses"); m != 1 || dh != 1 || dm != 0 {
		t.Fatalf("warm run: %d memory misses, disk %d hits / %d misses", m, dh, dm)
	}
	if n := warm("solvecache_solves"); n != 0 {
		t.Fatalf("warm run solved %d keys, want 0", n)
	}
	if a.AvgOnlinePerFile() != b.AvgOnlinePerFile() || len(a.Classes) != len(b.Classes) {
		t.Fatalf("disk round-trip changed the result: %v vs %v",
			a.AvgOnlinePerFile(), b.AvgOnlinePerFile())
	}
	for i := range a.Classes {
		if a.Classes[i] != b.Classes[i] {
			t.Fatalf("class %d changed across the disk round-trip", i+1)
		}
	}
}

// Failed solves must stay out of the persistent store.
func TestDiskCacheSkipsErrors(t *testing.T) {
	d, err := diskcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewDiskCache(d)
	if _, err := c.Evaluate(Key{Scheme: scheme.MTSD, Params: fluid.PaperParams, K: 10, P: 2, Lambda0: 1}); err == nil {
		t.Fatal("p=2 accepted")
	}
	if n, _, err := d.Usage(); err != nil || n != 0 {
		t.Fatalf("error persisted: %d entries (err=%v)", n, err)
	}
}
