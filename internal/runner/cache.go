package runner

import (
	"math"
	"strconv"
	"sync"
	"time"

	"mfdl/internal/correlation"
	"mfdl/internal/fluid"
	"mfdl/internal/metrics"
	"mfdl/internal/obs"
	"mfdl/internal/runner/diskcache"
	"mfdl/internal/scheme"
)

// Key identifies one steady-state solve: the scheme plus everything that
// determines its fixed point. Grid cells that map to the same Key share
// one solve.
type Key struct {
	Scheme scheme.Scheme `json:"scheme"`
	Params fluid.Params  `json:"params"`
	// K, P and Lambda0 determine the correlation model.
	K       int     `json:"k"`
	P       float64 `json:"p"`
	Lambda0 float64 `json:"lambda0"`
	// Rho is the CMFSD allocation ratio; the other schemes normalize it
	// to 0 so that sweeping ρ under them costs one solve, not one per
	// cell.
	Rho float64 `json:"rho"`
	// Theta is the downloader abort rate θ; every scheme honors it.
	Theta float64 `json:"theta"`
}

// normalize collapses key components the scheme does not depend on.
func (k Key) normalize() Key {
	if k.Scheme != scheme.CMFSD {
		k.Rho = 0
	}
	return k
}

// solveTolerance is the steady-state convergence tolerance the scheme
// solvers run at (the ode.SteadyStateOptions default). It is baked into
// every fingerprint so that a future tolerance change invalidates disk
// entries solved under the old numerics instead of silently reusing them.
const solveTolerance = 1e-10

// Fingerprint renders the normalized key as a stable string for the
// persistent cache. Floats are encoded as their exact IEEE-754 bits, so
// two keys share a fingerprint iff they solve bit-identically.
func (k Key) Fingerprint() string {
	k = k.normalize()
	b := make([]byte, 0, 192)
	b = append(b, "tol="...)
	b = strconv.AppendFloat(b, solveTolerance, 'g', -1, 64)
	b = append(append(b, " scheme="...), k.Scheme...)
	b = strconv.AppendInt(append(b, " k="...), int64(k.K), 10)
	b = appendBits(b, " mu=", k.Params.Mu)
	b = appendBits(b, " eta=", k.Params.Eta)
	b = appendBits(b, " gamma=", k.Params.Gamma)
	b = appendBits(b, " p=", k.P)
	b = appendBits(b, " lambda0=", k.Lambda0)
	b = appendBits(b, " rho=", k.Rho)
	b = appendBits(b, " theta=", k.Theta)
	return string(b)
}

// appendBits appends name and v's bit pattern as sixteen hex digits (%016x).
func appendBits(b []byte, name string, v float64) []byte {
	b = append(b, name...)
	u := math.Float64bits(v)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[u>>shift&15])
	}
	return b
}

// Cache memoizes scheme solves across grid cells, optionally backed by a
// persistent cross-process tier. It is safe for concurrent use; when
// several workers request the same key the solve runs once and the rest
// block on it — the disk tier is consulted inside that single flight, so
// each key costs at most one disk read and one solve per process.
// Results are shared — callers must treat them as immutable.
type Cache struct {
	mu      sync.Mutex
	entries map[Key]*cacheEntry
	disk    *diskcache.Store

	// When a registry is attached via WithObs the cache reports its
	// traffic through solvecache_* counters and a solvecache_solve_seconds
	// histogram. All fields are nil (no-op) until then.
	obsHits      *obs.Counter
	obsMisses    *obs.Counter
	obsSolves    *obs.Counter
	solveSeconds *obs.Histogram
}

type cacheEntry struct {
	once sync.Once
	res  *metrics.SchemeResult
	err  error
}

// NewCache returns an empty in-memory cache.
func NewCache() *Cache {
	return &Cache{entries: map[Key]*cacheEntry{}}
}

// NewDiskCache returns a cache whose misses fall through to (and whose
// solves populate) the persistent store.
func NewDiskCache(disk *diskcache.Store) *Cache {
	c := NewCache()
	c.disk = disk
	return c
}

// WithObs routes the cache's counters through the registry —
// solvecache_hits_total / solvecache_misses_total / solvecache_solves_total
// plus a solvecache_solve_seconds latency histogram — and wires the disk
// tier's diskcache_* counters too. A nil registry is a no-op. Returns the
// cache for chaining.
func (c *Cache) WithObs(reg *obs.Registry) *Cache {
	c.obsHits = reg.Counter("solvecache_hits_total")
	c.obsMisses = reg.Counter("solvecache_misses_total")
	c.obsSolves = reg.Counter("solvecache_solves_total")
	c.solveSeconds = reg.Histogram("solvecache_solve_seconds", obs.LatencyBuckets)
	if c.disk != nil {
		c.disk.WithObs(reg)
	}
	return c
}

// Evaluate returns the steady-state metrics for the key, solving it at
// most once per cache lifetime. With a disk tier attached, a key already
// solved by any previous process is decoded instead of re-solved; fresh
// solves are persisted best-effort (a full disk never fails the solve).
func (c *Cache) Evaluate(k Key) (*metrics.SchemeResult, error) {
	k = k.normalize()
	c.mu.Lock()
	e, ok := c.entries[k]
	if !ok {
		e = &cacheEntry{}
		c.entries[k] = e
	}
	c.mu.Unlock()
	if !ok {
		c.obsMisses.Inc()
	} else {
		c.obsHits.Inc()
	}
	e.once.Do(func() {
		if c.disk != nil {
			if res, ok := c.disk.Get(k.Fingerprint()); ok {
				e.res = res
				return
			}
		}
		c.obsSolves.Inc()
		var solveStart time.Time
		if c.solveSeconds != nil {
			solveStart = time.Now()
		}
		corr, err := correlation.New(k.K, k.P, k.Lambda0)
		if err != nil {
			e.err = err
			return
		}
		e.res, e.err = scheme.Evaluate(k.Scheme, k.Params, corr, scheme.Options{Rho: k.Rho, Theta: k.Theta})
		if c.solveSeconds != nil {
			c.solveSeconds.Since(solveStart)
		}
		if e.err == nil && c.disk != nil {
			_ = c.disk.Put(k.Fingerprint(), e.res)
		}
	})
	return e.res, e.err
}
