package fabric

import (
	"context"
	"math"
	"testing"
	"time"

	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// newCoord builds a coordinator without a server — the adaptive-lease
// policy is pure coordinator state.
func newCoord(t *testing.T, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(testSpec(t), store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// mustLease grants a lease and returns its cell count.
func mustLease(t *testing.T, c *Coordinator, worker string, max int) int {
	t.Helper()
	grant, _, done := c.Lease(worker, max)
	if done || grant == nil {
		t.Fatalf("Lease(%q) granted nothing (done=%v)", worker, done)
	}
	return len(grant.cells)
}

// The adaptive policy sizes each worker's batch from its observed pace:
// slow workers get smaller leases (down to a single cell), fast workers
// get the full batch, and a worker with no history falls back to the
// fixed LeaseCells.
func TestAdaptiveLeaseSizing(t *testing.T) {
	// testSpec has 12 cells; LeaseCells 8 keeps every scenario below the
	// pending count so sizes reflect policy, not depletion.
	opts := CoordinatorOptions{LeaseCells: 8, TargetLeaseSeconds: 1}

	t.Run("no-observations-falls-back", func(t *testing.T) {
		c := newCoord(t, opts)
		if n := mustLease(t, c, "fresh", 0); n != 8 {
			t.Fatalf("unobserved worker got %d cells, want LeaseCells=8", n)
		}
	})

	t.Run("slow-worker-gets-one-cell", func(t *testing.T) {
		c := newCoord(t, opts)
		c.ObserveCellSeconds("slow", 2.0) // 1s target / 2s mean -> floor at 1
		if n := mustLease(t, c, "slow", 0); n != 1 {
			t.Fatalf("slow worker got %d cells, want 1", n)
		}
	})

	t.Run("pace-is-a-running-mean", func(t *testing.T) {
		c := newCoord(t, opts)
		c.ObserveCellSeconds("steady", 0.2)
		c.ObserveCellSeconds("steady", 0.3) // mean 0.25s -> 4 cells
		if n := mustLease(t, c, "steady", 0); n != 4 {
			t.Fatalf("steady worker got %d cells, want 4", n)
		}
	})

	t.Run("fast-worker-clamps-to-lease-cells", func(t *testing.T) {
		c := newCoord(t, opts)
		c.ObserveCellSeconds("fast", 0.01) // 100 cells by pace, clamped
		if n := mustLease(t, c, "fast", 0); n != 8 {
			t.Fatalf("fast worker got %d cells, want LeaseCells=8", n)
		}
	})

	t.Run("worker-max-still-caps", func(t *testing.T) {
		c := newCoord(t, opts)
		c.ObserveCellSeconds("fast", 0.01)
		if n := mustLease(t, c, "fast", 2); n != 2 {
			t.Fatalf("capped worker got %d cells, want its own max 2", n)
		}
	})

	t.Run("paces-are-per-worker", func(t *testing.T) {
		c := newCoord(t, opts)
		c.ObserveCellSeconds("slow", 1.0)
		c.ObserveCellSeconds("fast", 0.05)
		slow := mustLease(t, c, "slow", 0)
		fast := mustLease(t, c, "fast", 0)
		if slow != 1 || fast != 8 {
			t.Fatalf("slow/fast got %d/%d cells, want 1/8", slow, fast)
		}
	})

	t.Run("junk-observations-are-ignored", func(t *testing.T) {
		c := newCoord(t, opts)
		for _, sec := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			c.ObserveCellSeconds("junk", sec)
		}
		c.ObserveCellSeconds("", 0.5) // anonymous observations dropped too
		if n := mustLease(t, c, "junk", 0); n != 8 {
			t.Fatalf("junk-fed worker got %d cells, want the 8-cell fallback", n)
		}
	})

	t.Run("disabled-policy-is-fixed", func(t *testing.T) {
		c := newCoord(t, CoordinatorOptions{LeaseCells: 8})
		c.ObserveCellSeconds("slow", 5.0)
		if n := mustLease(t, c, "slow", 0); n != 8 {
			t.Fatalf("fixed policy granted %d cells, want LeaseCells=8", n)
		}
	})
}

// The empty-queue retry hint follows what the coordinator has observed —
// mean cell seconds times the cells in flight — instead of a flat
// LeaseTTL/4, and stays inside [minIdleHint, LeaseTTL/4].
func TestIdleHintTracksCellsInFlight(t *testing.T) {
	hint := func(t *testing.T, c *Coordinator) time.Duration {
		t.Helper()
		grant, retry, done := c.Lease("idler", 0)
		if grant != nil || done {
			t.Fatalf("Lease on a drained queue = grant %v, done %v", grant, done)
		}
		return retry
	}
	// One worker holds all of testSpec's 12 cells.
	drained := func(t *testing.T) *Coordinator {
		c := newCoord(t, CoordinatorOptions{LeaseCells: 12, LeaseTTL: 40 * time.Second})
		if n := mustLease(t, c, "holder", 0); n != 12 {
			t.Fatalf("holder got %d cells, want 12", n)
		}
		return c
	}

	t.Run("no-observations-polls-at-the-floor", func(t *testing.T) {
		if got := hint(t, drained(t)); got != minIdleHint {
			t.Fatalf("hint = %v, want %v", got, minIdleHint)
		}
	})
	t.Run("mean-times-in-flight", func(t *testing.T) {
		c := drained(t)
		c.ObserveCellSeconds("holder", 0.04)
		c.ObserveCellSeconds("other", 0.06) // fleet mean 50ms x 12 in flight
		if got := hint(t, c).Round(time.Millisecond); got != 600*time.Millisecond {
			t.Fatalf("hint = %v, want 600ms", got)
		}
	})
	t.Run("fast-cells-clamp-to-the-floor", func(t *testing.T) {
		c := drained(t)
		c.ObserveCellSeconds("holder", 0.0001)
		if got := hint(t, c); got != minIdleHint {
			t.Fatalf("hint = %v, want %v", got, minIdleHint)
		}
	})
	t.Run("slow-cells-clamp-to-a-quarter-ttl", func(t *testing.T) {
		c := drained(t)
		c.ObserveCellSeconds("holder", 60)
		if got := hint(t, c); got != 10*time.Second {
			t.Fatalf("hint = %v, want LeaseTTL/4 = 10s", got)
		}
	})
}

// A cell reaped back into the queue and then completed by its original
// (slow) worker is never granted again: the queue entry it left behind is
// skipped when popped.
func TestReapedThenCompletedCellIsNotRegranted(t *testing.T) {
	now := time.Unix(0, 0)
	c := newCoord(t, CoordinatorOptions{
		LeaseCells: 4, LeaseTTL: time.Second, Clock: func() time.Time { return now },
	})
	slow, _, _ := c.Lease("slow", 0)
	now = now.Add(2 * time.Second)
	if st := c.Status(); st.Leased != 0 || st.Idle != st.Total {
		t.Fatalf("after expiry: %+v, want everything idle again", st)
	}
	want, err := runner.RunJobPayloads(context.Background(), c.spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range slow.cells[:2] {
		dup, err := c.Complete(diskcache.Entry{
			Schema: diskcache.CheckpointSchemaVersion, Key: c.fp, Cell: cell, Payload: want[cell],
		})
		if dup || err != nil {
			t.Fatalf("late completion of reaped cell %d = duplicate %v, error %v", cell, dup, err)
		}
	}
	granted := map[int]bool{}
	for {
		l, _, _ := c.Lease("thief", 0)
		if l == nil {
			break
		}
		for _, cell := range l.cells {
			if granted[cell] {
				t.Fatalf("cell %d granted twice", cell)
			}
			granted[cell] = true
		}
	}
	for _, cell := range slow.cells[:2] {
		if granted[cell] {
			t.Fatalf("cell %d was completed while queued, then granted anyway", cell)
		}
	}
	if st := c.Status(); len(granted) != 10 || st.Done != 2 || st.Leased != 10 || st.Idle != 0 {
		t.Fatalf("granted %d cells, status %+v; want 10 granted, 2 done, 10 leased, 0 idle", len(granted), st)
	}
}
