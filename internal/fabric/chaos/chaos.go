// Package chaos is the deterministic fault layer for the sweep fabric's
// HTTP plane: one chaos seed becomes a reproducible schedule of dropped,
// delayed, error-substituted and corrupted fabric messages, plus
// wall-clock windows during which the coordinator blacks out entirely.
//
// It follows internal/faults' split-RNG discipline. Every injected fault
// is a pure function of (seed, fault kind, worker, endpoint, attempt):
// each kind draws from its own salted stream family, and the stream id is
// a stable hash of (worker, endpoint, attempt). Consequences:
//
//   - the fault schedule is identical at any parallelism — whether worker
//     "w3" issues its 7th /v1/lease request first or last, that request
//     meets the same fate;
//   - re-running with the same seed replays the identical schedule, so a
//     chaos soak that passes is a reproducible claim, not a lucky roll;
//   - adding a fault kind never perturbs another kind's outcomes.
//
// The plan is consumed from both sides of the wire. Workers wrap their
// HTTP client in Transport, which drops requests before or after they
// reach the server, delays them, substitutes 503 responses, and corrupts
// response bodies. Coordinators wrap their handler in Middleware, which
// rejects every request with 503 during blackout windows (a coordinator
// restart or network partition as seen by the fleet) and can inject
// delays and 5xx responses server-side.
//
// Only responses are ever corrupted, never request bodies: a corrupted
// completion request would be indistinguishable from a worker from a
// different build and correctly rejected with a 4xx, which is a protocol
// disagreement, not weather. Chaos models the network's weather;
// request integrity stays the transport's job.
package chaos

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/rng"
)

// Window is a half-open interval [Start, End) of elapsed plan time during
// which the coordinator is blacked out.
type Window struct {
	Start, End time.Duration
}

// Config selects which faults to inject and how hard. The zero value
// injects nothing and is always valid.
type Config struct {
	// Seed derives every fault stream. Two plans with the same seed and
	// the same rates schedule identical per-request outcomes.
	Seed uint64
	// DropProb is the probability that one request is dropped: the caller
	// sees a transport error. Half of the drops (a further deterministic
	// draw) happen after the request reached the server — the classic
	// "did my write land?" failure that exercises idempotent completions.
	// In [0, 1).
	DropProb float64
	// DelayMax delays each request by a uniform draw from [0, DelayMax).
	// 0 disables delays.
	DelayMax time.Duration
	// Error5xxProb is the probability that a response is replaced with an
	// injected 503 after the server processed the request. In [0, 1).
	Error5xxProb float64
	// CorruptProb is the probability that a response body is corrupted in
	// flight (the status survives, the bytes do not). In [0, 1).
	CorruptProb float64
	// BlackoutWindows lists elapsed-time windows during which Middleware
	// rejects every request with 503 — the fleet's view of a coordinator
	// outage. The plan's clock starts at the first request it sees.
	BlackoutWindows []Window
}

// Enabled reports whether the configuration injects any fault at all.
func (c Config) Enabled() bool {
	return c.DropProb > 0 || c.DelayMax > 0 || c.Error5xxProb > 0 ||
		c.CorruptProb > 0 || len(c.BlackoutWindows) > 0
}

// Validate rejects probabilities and windows outside their domains.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DropProb", c.DropProb},
		{"Error5xxProb", c.Error5xxProb},
		{"CorruptProb", c.CorruptProb},
	} {
		if f.v < 0 || f.v >= 1 || math.IsNaN(f.v) {
			return fmt.Errorf("chaos: %s must be in [0,1), got %v", f.name, f.v)
		}
	}
	if c.DelayMax < 0 {
		return fmt.Errorf("chaos: DelayMax must be >= 0, got %v", c.DelayMax)
	}
	for i, w := range c.BlackoutWindows {
		if w.Start < 0 || w.End <= w.Start {
			return fmt.Errorf("chaos: BlackoutWindows[%d] must satisfy 0 <= Start < End, got [%v, %v)", i, w.Start, w.End)
		}
	}
	return nil
}

// Per-kind stream salts, in the internal/faults discipline: each fault
// kind draws from its own family of streams so adding a kind never
// perturbs another kind's outcomes.
const (
	saltDrop    uint64 = 0xc3a5c85c97cb3127
	saltDelay   uint64 = 0xb492b66fbe98f273
	saltError   uint64 = 0x9ae16a3b2f90404f
	saltCorrupt uint64 = 0x3c6ef372fe94f82a
)

// Decision is what the plan injects for one request. The zero value
// passes the request through untouched.
type Decision struct {
	// Drop fails the request with a transport error.
	Drop bool
	// DropAfterSend, meaningful only with Drop, lets the request reach
	// the server first — the response is lost, not the request.
	DropAfterSend bool
	// Delay postpones the request.
	Delay time.Duration
	// Error5xx replaces the response with an injected 503.
	Error5xx bool
	// Corrupt garbles the response body.
	Corrupt bool
}

// Plan is a compiled chaos configuration. A nil *Plan is valid and
// injects nothing: Transport returns the base transport and Middleware
// returns the next handler, so call sites can hold a plan
// unconditionally.
type Plan struct {
	cfg Config

	startOnce sync.Once
	start     time.Time
	clock     func() time.Time

	dropped   *obs.Counter
	delayed   *obs.Counter
	injected  *obs.Counter
	corrupted *obs.Counter
	blackouts *obs.Counter
}

// NewPlan validates cfg and compiles its plan; a disabled configuration
// yields nil (inject nothing) without error. The registry may be nil.
func NewPlan(cfg Config, reg *obs.Registry) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !cfg.Enabled() {
		return nil, nil
	}
	return &Plan{
		cfg:       cfg,
		clock:     time.Now,
		dropped:   reg.Counter("chaos_requests_dropped_total"),
		delayed:   reg.Counter("chaos_requests_delayed_total"),
		injected:  reg.Counter("chaos_errors_injected_total"),
		corrupted: reg.Counter("chaos_responses_corrupted_total"),
		blackouts: reg.Counter("chaos_blackout_rejects_total"),
	}, nil
}

// streamID hashes (worker, endpoint, attempt) into a stable stream id
// (FNV-1a over the framed triple; the separators keep ("ab","c") and
// ("a","bc") apart).
func streamID(worker, endpoint string, attempt uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // frame separator, outside any byte value a string contributes
		h *= prime64
	}
	mix(worker)
	mix(endpoint)
	for i := 0; i < 8; i++ {
		h ^= (attempt >> (8 * i)) & 0xff
		h *= prime64
	}
	return h
}

// Decide returns the fault injected for the attempt-th request worker
// makes to endpoint. It is a pure function of (seed, worker, endpoint,
// attempt): the same triple meets the same fate in every run, at any
// parallelism, which is what makes a chaos schedule replayable from its
// seed alone.
func (p *Plan) Decide(worker, endpoint string, attempt uint64) Decision {
	if p == nil {
		return Decision{}
	}
	id := streamID(worker, endpoint, attempt)
	var d Decision
	if p.cfg.DropProb > 0 {
		s := rng.NewStream(p.cfg.Seed+saltDrop, id)
		if s.Bernoulli(p.cfg.DropProb) {
			d.Drop = true
			d.DropAfterSend = s.Bernoulli(0.5)
		}
	}
	if p.cfg.DelayMax > 0 {
		s := rng.NewStream(p.cfg.Seed+saltDelay, id)
		d.Delay = time.Duration(s.Float64() * float64(p.cfg.DelayMax))
	}
	if p.cfg.Error5xxProb > 0 && !d.Drop {
		s := rng.NewStream(p.cfg.Seed+saltError, id)
		d.Error5xx = s.Bernoulli(p.cfg.Error5xxProb)
	}
	if p.cfg.CorruptProb > 0 && !d.Drop && !d.Error5xx {
		s := rng.NewStream(p.cfg.Seed+saltCorrupt, id)
		d.Corrupt = s.Bernoulli(p.cfg.CorruptProb)
	}
	return d
}

// elapsed returns time since the plan first saw traffic, latching the
// start on first use so blackout windows are relative to when the run
// actually began, not when the flags were parsed.
func (p *Plan) elapsed() time.Duration {
	p.startOnce.Do(func() { p.start = p.clock() })
	return p.clock().Sub(p.start)
}

// Blackout reports whether elapsed plan time t falls inside a blackout
// window.
func (p *Plan) Blackout(t time.Duration) bool {
	if p == nil {
		return false
	}
	for _, w := range p.cfg.BlackoutWindows {
		if t >= w.Start && t < w.End {
			return true
		}
	}
	return false
}

// SetClock overrides the plan's wall clock (for tests). Call it before
// the plan sees traffic.
func (p *Plan) SetClock(clock func() time.Time) {
	if p != nil && clock != nil {
		p.clock = clock
	}
}

// Transport wraps base (nil = http.DefaultTransport) in the plan's
// worker-side fault injection. Each wrapped client counts its own
// attempts per endpoint, so two workers sharing a plan still consume
// their own schedules. A nil plan returns base unchanged.
func (p *Plan) Transport(worker string, base http.RoundTripper) http.RoundTripper {
	if base == nil {
		base = http.DefaultTransport
	}
	if p == nil {
		return base
	}
	return &transport{plan: p, worker: worker, base: base, attempts: map[string]uint64{}}
}

type transport struct {
	plan   *Plan
	worker string
	base   http.RoundTripper

	mu       sync.Mutex
	attempts map[string]uint64
}

// chaosError is the transport error injected for dropped requests.
// It is deliberately a distinct type so tests can tell injected loss
// from real loss.
type chaosError struct{ msg string }

func (e *chaosError) Error() string { return e.msg }

func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	endpoint := req.URL.Path
	t.mu.Lock()
	n := t.attempts[endpoint]
	t.attempts[endpoint] = n + 1
	t.mu.Unlock()
	d := t.plan.Decide(t.worker, endpoint, n)
	if d.Delay > 0 {
		timer := time.NewTimer(d.Delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			return nil, req.Context().Err()
		case <-timer.C:
		}
		t.plan.delayed.Inc()
	}
	if d.Drop && !d.DropAfterSend {
		t.plan.dropped.Inc()
		return nil, &chaosError{fmt.Sprintf("chaos: request dropped (%s %s attempt %d)", t.worker, endpoint, n)}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	switch {
	case d.Drop: // after send: the server saw it, the caller never will
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.plan.dropped.Inc()
		return nil, &chaosError{fmt.Sprintf("chaos: response dropped (%s %s attempt %d)", t.worker, endpoint, n)}
	case d.Error5xx:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.plan.injected.Inc()
		return injected503(req), nil
	case d.Corrupt:
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		t.plan.corrupted.Inc()
		resp.Body = io.NopCloser(bytes.NewReader(Corrupt(body)))
		resp.ContentLength = -1
		resp.Header.Del("Content-Length")
		return resp, nil
	}
	return resp, nil
}

// injected503 builds the substitute response for an Error5xx decision.
func injected503(req *http.Request) *http.Response {
	body := "chaos: injected server error\n"
	return &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain; charset=utf-8"}},
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// Corrupt deterministically garbles a response body: the first byte is
// inverted (0x7b '{' becomes an invalid JSON lead byte) and the tail is
// truncated, so both structured decoders and length-sensitive consumers
// notice. An empty body gains a garbage byte instead. It is exported so
// decoders' fuzz targets can seed their corpora with exactly the bytes the
// chaos transport would hand them.
func Corrupt(body []byte) []byte {
	if len(body) == 0 {
		return []byte{0xff}
	}
	out := make([]byte, (len(body)+1)/2)
	copy(out, body)
	out[0] ^= 0xff
	return out
}

// Middleware wraps next in the plan's coordinator-side fault injection:
// during blackout windows every request is rejected with 503, and the
// delay / Error5xx draws (attributed to the pseudo-worker
// "coordinator") apply server-side. Drop and Corrupt decisions are
// worker-transport faults and are ignored here. A nil plan returns next
// unchanged.
func (p *Plan) Middleware(next http.Handler) http.Handler {
	if p == nil {
		return next
	}
	srv := &transport{plan: p, worker: "coordinator", attempts: map[string]uint64{}}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if p.Blackout(p.elapsed()) {
			p.blackouts.Inc()
			http.Error(w, "chaos: coordinator blackout", http.StatusServiceUnavailable)
			return
		}
		endpoint := r.URL.Path
		srv.mu.Lock()
		n := srv.attempts[endpoint]
		srv.attempts[endpoint] = n + 1
		srv.mu.Unlock()
		d := p.Decide("coordinator", endpoint, n)
		if d.Delay > 0 {
			timer := time.NewTimer(d.Delay)
			select {
			case <-r.Context().Done():
				timer.Stop()
				return
			case <-timer.C:
			}
			p.delayed.Inc()
		}
		if d.Error5xx {
			p.injected.Inc()
			http.Error(w, "chaos: injected server error", http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}
