package chaos

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mfdl/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden fault schedule")

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{DropProb: -0.1},
		{DropProb: 1},
		{Error5xxProb: 1.5},
		{CorruptProb: -1},
		{DelayMax: -time.Second},
		{BlackoutWindows: []Window{{Start: -1, End: 1}}},
		{BlackoutWindows: []Window{{Start: 2 * time.Second, End: time.Second}}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d validated: %+v", i, cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config rejected: %v", err)
	}
	if p, err := NewPlan(Config{}, nil); err != nil || p != nil {
		t.Fatalf("disabled config gave plan %v, err %v; want nil, nil", p, err)
	}
}

// goldenConfig exercises every probabilistic fault kind at rates high
// enough that the enumerated schedule contains each at least once.
func goldenConfig() Config {
	return Config{
		Seed:         42,
		DropProb:     0.3,
		DelayMax:     100 * time.Millisecond,
		Error5xxProb: 0.3,
		CorruptProb:  0.3,
	}
}

// formatSchedule renders the deterministic fault schedule for a fixed
// enumeration of (worker, endpoint, attempt) triples — the canonical
// fault log a seed compiles to.
func formatSchedule(p *Plan) string {
	var sb strings.Builder
	for _, worker := range []string{"w0", "w1"} {
		for _, endpoint := range []string{"/v1/job", "/v1/lease", "/v1/complete", "/v1/renew"} {
			for attempt := uint64(0); attempt < 8; attempt++ {
				d := p.Decide(worker, endpoint, attempt)
				fmt.Fprintf(&sb, "%s %s %d drop=%v after=%v delay=%dus err5xx=%v corrupt=%v\n",
					worker, endpoint, attempt,
					d.Drop, d.DropAfterSend, d.Delay.Microseconds(), d.Error5xx, d.Corrupt)
			}
		}
	}
	return sb.String()
}

// The fault schedule is a pure function of the seed: the rendered log is
// pinned byte-for-byte to a committed golden, so any change to the
// derivation discipline (salts, stream ids, draw order) is a visible,
// deliberate break rather than a silent reshuffle of every soak.
func TestFaultScheduleGolden(t *testing.T) {
	p, err := NewPlan(goldenConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := formatSchedule(p)
	path := filepath.Join("testdata", "schedule_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("fault schedule drifted from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
	// Sanity: the golden exercises every kind at least once.
	for _, kind := range []string{"drop=true", "err5xx=true", "corrupt=true"} {
		if !strings.Contains(got, kind) {
			t.Fatalf("golden schedule never injects %s; raise the rates", kind)
		}
	}
}

// Same seed ⇒ identical decisions; different seeds ⇒ different schedules.
func TestScheduleSeedDeterminism(t *testing.T) {
	a, err := NewPlan(goldenConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewPlan(goldenConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if formatSchedule(a) != formatSchedule(b) {
		t.Fatal("two plans with the same seed disagree")
	}
	cfg := goldenConfig()
	cfg.Seed = 43
	c, err := NewPlan(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if formatSchedule(a) == formatSchedule(c) {
		t.Fatal("different seeds produced the same schedule")
	}
}

// Decisions for one (worker, endpoint, attempt) triple are identical no
// matter which goroutine computes them or in what order — the property
// that makes the schedule independent of parallelism.
func TestDecideIsOrderFree(t *testing.T) {
	p, err := NewPlan(goldenConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := p.Decide("w0", "/v1/lease", 3)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				p.Decide("w1", "/v1/complete", uint64(j)) // interleave other draws
				if got := p.Decide("w0", "/v1/lease", 3); got != want {
					t.Errorf("Decide drifted: got %+v, want %+v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Transport injects exactly what the schedule says: a dropped request
// never reaches the server, a drop-after-send reaches it and loses the
// response, an injected 503 replaces a served response, and a corrupted
// body no longer decodes.
func TestTransportInjectsSchedule(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`)
	}))
	defer srv.Close()

	reg := obs.New()
	p, err := NewPlan(goldenConfig(), reg)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: p.Transport("w0", nil)}
	const endpoint = "/v1/lease"
	var drops, after, errs5xx, corrupts, clean int
	for attempt := uint64(0); attempt < 64; attempt++ {
		d := p.Decide("w0", endpoint, attempt)
		before := served
		resp, err := client.Get(srv.URL + endpoint)
		switch {
		case d.Drop && !d.DropAfterSend:
			drops++
			if !errors.As(err, new(*chaosError)) {
				t.Fatalf("attempt %d: dropped request returned (%v, %v), want injected transport error", attempt, resp, err)
			}
			if served != before {
				t.Fatalf("attempt %d: dropped-before-send request reached the server", attempt)
			}
		case d.Drop:
			after++
			if !errors.As(err, new(*chaosError)) {
				t.Fatalf("attempt %d: drop-after-send returned (%v, %v), want injected transport error", attempt, resp, err)
			}
			if served != before+1 {
				t.Fatalf("attempt %d: drop-after-send never reached the server", attempt)
			}
		case d.Error5xx:
			errs5xx++
			if err != nil || resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("attempt %d: injected 5xx returned (%v, %v)", attempt, resp, err)
			}
			resp.Body.Close()
		case d.Corrupt:
			corrupts++
			if err != nil {
				t.Fatalf("attempt %d: corrupt attempt errored: %v", attempt, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) == `{"ok":true}` {
				t.Fatalf("attempt %d: corrupt response survived intact", attempt)
			}
		default:
			clean++
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("attempt %d: clean request returned (%v, %v)", attempt, resp, err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != `{"ok":true}` {
				t.Fatalf("attempt %d: clean response body %q", attempt, body)
			}
		}
	}
	for name, n := range map[string]int{
		"drops": drops, "after": after, "5xx": errs5xx, "corrupts": corrupts, "clean": clean,
	} {
		if n == 0 {
			t.Fatalf("schedule never exercised %s in 64 attempts; raise the rates", name)
		}
	}
	if got := reg.Counter("chaos_requests_dropped_total").Value(); got != uint64(drops+after) {
		t.Fatalf("chaos_requests_dropped_total = %d, want %d", got, drops+after)
	}
}

// Middleware blacks the coordinator out for exactly the configured
// windows of plan time and serves normally outside them.
func TestMiddlewareBlackout(t *testing.T) {
	reg := obs.New()
	p, err := NewPlan(Config{
		Seed:            7,
		BlackoutWindows: []Window{{Start: 100 * time.Millisecond, End: 200 * time.Millisecond}},
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	p.SetClock(func() time.Time { mu.Lock(); defer mu.Unlock(); return now })
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	h := p.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func() int {
		resp, err := http.Get(srv.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK { // latches start at elapsed 0
		t.Fatalf("before the window: %d, want 200", code)
	}
	advance(150 * time.Millisecond)
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("inside the window: %d, want 503", code)
	}
	advance(100 * time.Millisecond)
	if code := get(); code != http.StatusOK {
		t.Fatalf("after the window: %d, want 200", code)
	}
	if n := reg.Counter("chaos_blackout_rejects_total").Value(); n != 1 {
		t.Fatalf("blackout rejects = %d, want 1", n)
	}
}

// A nil plan is a transparent no-op on both sides of the wire.
func TestNilPlanIsTransparent(t *testing.T) {
	var p *Plan
	if d := p.Decide("w", "/v1/job", 0); d != (Decision{}) {
		t.Fatalf("nil plan decided %+v", d)
	}
	if p.Blackout(time.Hour) {
		t.Fatal("nil plan blacked out")
	}
	base := http.DefaultTransport
	if got := p.Transport("w", base); got != base {
		t.Fatal("nil plan wrapped the transport")
	}
	h := http.NewServeMux()
	if got := p.Middleware(h); got != http.Handler(h) {
		t.Fatal("nil plan wrapped the handler")
	}
}
