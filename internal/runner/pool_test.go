package runner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mfdl/internal/fluid"
	"mfdl/internal/rng"
	"mfdl/internal/scheme"
)

func TestClaimBlock(t *testing.T) {
	for _, c := range []struct{ n, workers, want int }{
		{81, 2, 1}, {32, 2, 1}, {12, 2, 1}, // fluid_cold, flow_sim, chunk_sim: a cell at a time
		{768, 8, 3}, {20080, 2, 64}, {1, 1, 1}, {63, 1, 1}, {64, 1, 2}, {1 << 30, 1, 64},
	} {
		if got := claimBlock(c.n, c.workers); got != c.want {
			t.Errorf("claimBlock(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
	for workers := 1; workers <= 9; workers++ {
		prev := 1
		for n := workers; n <= 5000; n++ { // Run never has more workers than cells
			b := claimBlock(n, workers)
			switch {
			case b < 1, b > 64, b > (n+workers-1)/workers:
				t.Fatalf("claimBlock(%d, %d) = %d: outside [1, min(64, ceil(n/workers))]", n, workers, b)
			case b < prev:
				t.Fatalf("claimBlock(%d, %d) = %d fell from %d", n, workers, b, prev)
			case n < 64*workers && b != 1:
				t.Fatalf("claimBlock(%d, %d) = %d: a grid under 64 cells per worker must keep the one-cell schedule", n, workers, b)
			}
			prev = b
		}
	}
}

// Whatever the block size, the pool's contract is per cell: every cell is
// evaluated, once, lands at its own index, and draws from the stream
// CellStream derives for it.
func TestRunBlocksKeepTheCellContract(t *testing.T) {
	const seed = 20260930
	for _, n := range []int{1, 2, 63, 64, 65, 1000, 20080} {
		g := indexedGrid(t, n)
		// The i-th split of the seed's stream, in one pass (CellStream costs
		// i splits; spot-checked against it below).
		want := make([]uint64, n)
		parent := rng.New(seed)
		for i := range want {
			want[i] = parent.Split().Uint64()
		}
		for _, i := range []int{0, n / 2, n - 1} {
			if got := CellStream(seed, i).Uint64(); got != want[i] {
				t.Fatalf("n=%d: reference stream %d drew %d, CellStream %d", n, i, want[i], got)
			}
		}
		for _, workers := range []int{1, 2, 3, 8, n + 5} {
			attempts := make([]atomic.Int32, n)
			out, err := Run(context.Background(), g,
				func(_ context.Context, p Point, src *rng.Source) (uint64, error) {
					attempts[p.Index].Add(1)
					v := src.Uint64()
					if v != want[p.Index] {
						t.Errorf("n=%d workers=%d: cell %d drew %d, its stream starts %d", n, workers, p.Index, v, want[p.Index])
					}
					return v, nil
				}, Options{Workers: workers, Seed: seed})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i, v := range out {
				if v != want[i] || attempts[i].Load() != 1 {
					t.Fatalf("n=%d workers=%d: out[%d] = %d after %d attempts, want %d after 1", n, workers, i, v, attempts[i].Load(), want[i])
				}
			}
		}
	}
}

// Two cells fail, the later one first: the earlier cell — in the middle of
// another worker's block — still decides the error.
func TestRunBlocksLowestErrorWins(t *testing.T) {
	const n, low, high = 1000, 10, 700 // 8 workers: blocks of 3, cell 10 is the middle of [9, 11]
	for _, workers := range []int{1, 2, 8} {
		lowStarted := make(chan struct{})
		_, err := Run(context.Background(), indexedGrid(t, n),
			func(_ context.Context, p Point, _ *rng.Source) (int, error) {
				switch p.Index {
				case low:
					close(lowStarted)
					return 0, fmt.Errorf("boom %d", low)
				case high:
					<-lowStarted // cell 10 is running, so its failure will be recorded
					return 0, fmt.Errorf("boom %d", high)
				}
				return p.Index, nil
			}, Options{Workers: workers})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("boom %d", low)) {
			t.Fatalf("workers=%d: err = %v, want cell %d's", workers, err, low)
		}
	}
}

// Cancellation is checked before every cell, not every block: after the
// cancel, each other worker finishes at most the cell it was about to
// start.
func TestRunCancelMidBlockStopsWithinOneCell(t *testing.T) {
	const n, workers, cancelAt = 20080, 2, 10
	if b := claimBlock(n, workers); b <= cancelAt {
		t.Fatalf("block %d: cell %d would not be mid-block", b, cancelAt)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Counting and cancelling happen under one lock, so no other cell can
	// start between the count reaching cancelAt and the cancel landing.
	var (
		mu      sync.Mutex
		started atomic.Int32
	)
	_, err := Run(ctx, indexedGrid(t, n),
		func(_ context.Context, p Point, _ *rng.Source) (int, error) {
			mu.Lock()
			if started.Add(1) == cancelAt {
				cancel()
			}
			mu.Unlock()
			return p.Index, nil // a job that never looks at its context
		}, Options{Workers: workers})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got > cancelAt+workers-1 {
		t.Fatalf("%d cells started; the cancel came in cell %d of a block of %d", got, cancelAt, claimBlock(n, workers))
	}
}

// The strings that key the disk tier, every checkpoint directory and the
// fabric's run identity, as the fmt-based renderings produced them.
func TestFingerprintGolden(t *testing.T) {
	key := Key{Scheme: scheme.MTCD, Params: fluid.PaperParams, K: 10, P: 0.9, Lambda0: 1, Rho: 0.3, Theta: 0.001}
	const mtcd = "tol=1e-10 scheme=MTCD k=10 mu=3f947ae147ae147b eta=3fe0000000000000 gamma=3fa999999999999a p=3feccccccccccccd lambda0=3ff0000000000000 rho=0000000000000000 theta=3f50624dd2f1a9fc"
	if got := key.Fingerprint(); got != mtcd {
		t.Errorf("Key.Fingerprint:\n got %s\nwant %s", got, mtcd)
	}
	const job = "job v1 fluid-sweep tol=1e-10 scheme=MTCD k=10 mu=3f947ae147ae147b eta=3fe0000000000000 gamma=3fa999999999999a p=3feccccccccccccd lambda0=3ff0000000000000 rho=0000000000000000 theta=0000000000000000 p=[3fb999999999999a,3fe0000000000000,3feccccccccccccd] lambda0=[3fe0000000000000,4000000000000000] seed=42 replicas=0"
	if got := testJobSpec().Fingerprint(); got != job {
		t.Errorf("JobSpec.Fingerprint:\n got %s\nwant %s", got, job)
	}
	// The format string Fingerprint was, over values that stress the
	// padding and the sign.
	for _, k := range []Key{
		key,
		{Scheme: scheme.CMFSD, Params: fluid.PaperParams, K: 10, P: 0.9, Lambda0: 1, Rho: 0.3},
		{Scheme: scheme.CMFSD, K: -7, P: math.Copysign(0, -1), Lambda0: math.SmallestNonzeroFloat64, Rho: math.Inf(-1), Theta: math.NaN()},
		{},
	} {
		k = k.normalize()
		b := math.Float64bits
		want := fmt.Sprintf("tol=%g scheme=%s k=%d mu=%016x eta=%016x gamma=%016x p=%016x lambda0=%016x rho=%016x theta=%016x",
			solveTolerance, k.Scheme, k.K,
			b(k.Params.Mu), b(k.Params.Eta), b(k.Params.Gamma),
			b(k.P), b(k.Lambda0), b(k.Rho), b(k.Theta))
		if got := k.Fingerprint(); got != want {
			t.Errorf("Key.Fingerprint:\n got %s\nwant %s", got, want)
		}
	}
}

// A cell whose key is resident costs one allocation: the Values slice the
// CellValue carries. (The once.Do closure used to be a second.)
func TestMemoryHitAllocs(t *testing.T) {
	spec := testJobSpec()
	g, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cache, p := NewCache(), g.Point(3)
	if _, err := spec.EvaluateCell(cache, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := spec.EvaluateCell(cache, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a memory hit allocates %v objects, want 1 (Point.Values)", allocs)
	}
}
