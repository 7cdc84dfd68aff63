//go:build unix

package fabric

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"mfdl/internal/obs"
	"mfdl/internal/runner"
	"mfdl/internal/runner/diskcache"
)

// A store that stalls in the middle of one cell's completion must stall
// that cell only. The stall is real: the cell's path in the sample store is
// replaced by a FIFO, so the coordinator's look-before-write blocks in the
// kernel until the test feeds the pipe. While it does, leases, renewals,
// status reads and another cell's completion all go through; a second
// completion of the stalled cell waits for the first and is then a
// duplicate.
func TestStalledStoreBlocksOnlyItsCell(t *testing.T) {
	spec := simTestSpec(t, 11, 2) // 4 executable cells
	want, err := runner.RunJobPayloads(context.Background(), spec, runner.JobEnv{}, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, err := diskcache.OpenCheckpoint(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sampleDir := t.TempDir()
	samples, err := diskcache.OpenSamples(sampleDir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	coord, err := NewCoordinator(spec, store, CoordinatorOptions{Samples: samples, LeaseCells: 1, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	entry := func(cell int) diskcache.Entry {
		return diskcache.Entry{Schema: diskcache.CheckpointSchemaVersion, Key: coord.fp, Cell: cell, Payload: want[cell]}
	}

	// Find cell 0's sample path by storing it once, then swap in the FIFO.
	key, seed, ok := coord.sampleRef(0)
	if !ok {
		t.Fatal("cell 0 has no sample identity")
	}
	if err := samples.Put(key, seed, want[0]); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(sampleDir, "samples-*", "s-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("sample files = %v, %v; want exactly one", files, err)
	}
	fifo := files[0]
	if err := os.Remove(fifo); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(fifo, 0o600); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		dup bool
		err error
	}
	complete := func(cell int) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			dup, err := coord.Complete(entry(cell))
			ch <- outcome{dup, err}
		}()
		return ch
	}
	first := complete(0)
	// Opening the write end succeeds only once a reader sits on the other:
	// from here until the pipe is closed, the first completion is parked
	// inside the sample store.
	var pipe *os.File
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if pipe, err = os.OpenFile(fifo, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the completion never reached the sample store: %v", err)
		}
	}
	released := false
	defer func() {
		if !released {
			pipe.Close()
		}
	}()

	second := complete(0)
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s blocked behind a stalled store write", what)
		}
	}
	var grant *lease
	within("Lease", func() { grant, _, _ = coord.Lease("w", 1) })
	if grant == nil {
		t.Fatal("no lease granted while a completion was stalled")
	}
	within("Renew", func() {
		if err := coord.Renew("w", grant.id); err != nil {
			t.Error(err)
		}
	})
	within("Status", func() {
		if st := coord.Status(); st.Done != 0 {
			t.Errorf("status reports %d cells done before any commit", st.Done)
		}
	})
	within("Complete of another cell", func() {
		if dup, err := coord.Complete(entry(1)); dup || err != nil {
			t.Errorf("Complete(cell 1) = duplicate %v, error %v", dup, err)
		}
	})
	select {
	case o := <-first:
		t.Fatalf("the stalled completion returned %+v before its store did", o)
	case o := <-second:
		t.Fatalf("a second completion of the stalled cell returned %+v without waiting for the first", o)
	case <-time.After(50 * time.Millisecond):
	}

	// Feed the pipe nothing: the store reads an empty entry, evicts it as
	// corrupt and writes the sample for real.
	released = true
	if err := pipe.Close(); err != nil {
		t.Fatal(err)
	}
	if o := <-first; o.dup || o.err != nil {
		t.Fatalf("first completion = %+v, want a clean commit", o)
	}
	if o := <-second; !o.dup || o.err != nil {
		t.Fatalf("second completion = %+v, want a duplicate", o)
	}
	if n := reg.Counter("fabric_cells_completed_total").Value(); n != 2 {
		t.Fatalf("completed counter = %d, want 2 (cells 0 and 1, once each)", n)
	}
	if payload, ok := samples.Get(key, seed); !ok || string(payload) != string(want[0]) {
		t.Fatal("the stalled cell's sample was not written through after the stall")
	}
}
