package diskcache

import (
	"bytes"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mfdl/internal/metrics"
	"mfdl/internal/obs"
)

// One contract suite, three layouts. A kit adapts a store to the suite:
// an entry is addressed by (key, n) — n is the checkpoint cell or the
// sample seed and is ignored by the solve cache, whose keys name single
// files — and carries a string value. Every contract below takes a kit;
// the Test functions at the bottom say which store must honour which.
type kit struct {
	counters string // registry counter prefix
	prunable bool   // has Usage and Prune, and a hit refreshes recency
	perKey   bool   // several entries (cells, seeds) share a key's directory
	// malformed holds well-formed JSON for entry ("k", 7) that the layout
	// must still reject as corrupt.
	malformed map[string]string
	// skewed holds entries for ("k", 7) of another schema version that this
	// build could not use either: version skew, so stale, not corrupt.
	skewed map[string]string
	open   func(dir string) (handle, error)
}

type handle struct {
	put     func(key string, n int, v string) error
	putNil  func() error
	get     func(key string, n int) (string, bool)
	path    func(key string, n int) string
	observe func(*obs.Registry)
	count   func(key string) (int, error)
	clear   func(key string) error // nil: the layout has no per-key directory
	usage   func() (int, int64, error)
	prune   func(PruneOptions) (PruneStats, error)
}

func sample() *metrics.SchemeResult {
	return &metrics.SchemeResult{
		Scheme: "MTSD",
		Classes: []metrics.PerClass{
			{Class: 1, EntryRate: 0.5, DownloadTime: 50, OnlineTime: 70},
			{Class: 2, EntryRate: 0.25, DownloadTime: 100, OnlineTime: 120},
			{Class: 3, EntryRate: 0, DownloadTime: math.NaN(), OnlineTime: math.NaN()},
		},
	}
}

// canonSolve is the solve entry Put writes for key "k", one class.
const canonSolve = `{"schema":1,"key":"k","result":{"scheme":"x","classes":[` +
	`{"class":1,"lambda":"3fe0000000000000","download":"4049000000000000","online":"4051800000000000"}]}}`

var solve = kit{
	counters: "diskcache", prunable: true,
	// All but the first are valid JSON that encoding/json would read as a
	// hit; Put never spells an entry so, and the decoder accepts only what
	// Put writes (TestNonCanonicalRowsAreValidJSON checks the first half).
	malformed: map[string]string{
		"nullres":     `{"schema":1,"key":"k","result":null}`,
		"whitespace":  strings.Replace(canonSolve, `"schema":1`, `"schema": 1`, 1),
		"reordered":   strings.Replace(canonSolve, `"schema":1,"key":"k"`, `"key":"k","schema":1`, 1),
		"unknownkey":  strings.Replace(canonSolve, `,"result"`, `,"extra":true,"result"`, 1),
		"uppercase":   strings.Replace(canonSolve, `3fe`, `3FE`, 1),
		"longhex":     strings.Replace(canonSolve, `"3fe`, `"03fe`, 1),
		"leadingzero": strings.Replace(canonSolve, `"3fe0000000000000"`, `"00"`, 1),
	},
	skewed: map[string]string{
		"noscheme": strings.NewReplacer(`"schema":1`, `"schema":2`, `"scheme":"x"`, `"scheme":""`).Replace(canonSolve),
		"classes":  strings.NewReplacer(`"schema":1`, `"schema":2`, `"class":1`, `"class":5`).Replace(canonSolve),
	},
	open: func(dir string) (handle, error) {
		s, err := Open(dir)
		if err != nil {
			return handle{}, err
		}
		return handle{
			put: func(key string, _ int, v string) error {
				res := sample()
				res.Scheme = v
				return s.Put(key, res)
			},
			putNil: func() error { return s.Put("k", nil) },
			get: func(key string, _ int) (string, bool) {
				res, ok := s.Get(key)
				if !ok {
					return "", false
				}
				return res.Scheme, true
			},
			path:    func(key string, _ int) string { return s.path(key) },
			observe: func(reg *obs.Registry) { s.WithObs(reg) },
			count: func(string) (int, error) {
				n, _, err := s.Usage()
				return n, err
			},
			usage: s.Usage, prune: s.Prune,
		}, nil
	},
}

var checkpoint = kit{
	counters: "checkpoint", perKey: true,
	malformed: map[string]string{"nullpayload": `{"schema":1,"key":"k","cell":7,"payload":null}`},
	open: func(dir string) (handle, error) {
		s, err := OpenCheckpoint(dir)
		if err != nil {
			return handle{}, err
		}
		return handle{
			put: func(key string, n int, v string) error {
				return s.PutEntry(Entry{Schema: CheckpointSchemaVersion, Key: key, Cell: n, Payload: []byte(v)})
			},
			putNil: func() error { return s.PutEntry(Entry{Schema: CheckpointSchemaVersion, Key: "k"}) },
			get: func(key string, n int) (string, bool) {
				p, ok := s.Get(key, n)
				return string(p), ok
			},
			path: s.cellPath,
			// The coordinator keeps its own fabric_* counters and wires
			// none on its store; the shared file store still counts.
			observe: s.observe,
			count:   s.count, clear: s.Clear,
		}, nil
	},
}

var samples = kit{
	counters: "samplestore", prunable: true, perKey: true,
	malformed: map[string]string{
		"nullpayload": `{"schema":1,"key":"k","seed":"0000000000000007","payload":null}`,
		"badseed":     `{"schema":1,"key":"k","seed":"not-hex","payload":"eA=="}`,
	},
	open: func(dir string) (handle, error) {
		s, err := OpenSamples(dir)
		if err != nil {
			return handle{}, err
		}
		return handle{
			put:    func(key string, n int, v string) error { return s.Put(key, uint64(n), []byte(v)) },
			putNil: func() error { return s.Put("k", 1, nil) },
			get: func(key string, n int) (string, bool) {
				p, ok := s.Get(key, uint64(n))
				return string(p), ok
			},
			path:    func(key string, n int) string { return s.samplePath(key, uint64(n)) },
			observe: func(reg *obs.Registry) { s.WithObs(reg) },
			count:   s.count, clear: s.clear,
			usage: s.usage, prune: s.Prune,
		}, nil
	},
}

var kits = map[string]kit{"store": solve, "checkpoint": checkpoint, "samples": samples}

// each runs a contract against every layout.
func each(t *testing.T, contract func(*testing.T, kit)) {
	for name, k := range kits {
		t.Run(name, func(t *testing.T) { contract(t, k) })
	}
}

// env is one opened store under test, counted by its own registry.
type env struct {
	*testing.T
	kit
	handle
	dir string
	reg *obs.Registry
}

func (k kit) start(t *testing.T) *env {
	t.Helper()
	e := &env{T: t, kit: k, dir: t.TempDir()}
	e.reopen()
	return e
}

// reopen replaces the handle with a fresh store (and fresh counters) over
// the same directory, as a restarted process would.
func (e *env) reopen() {
	e.Helper()
	h, err := e.open(e.dir)
	if err != nil {
		e.Fatal(err)
	}
	e.handle, e.reg = h, obs.New()
	e.observe(e.reg)
}

// counted asserts registry counters, given as name, value pairs.
func (e *env) counted(want ...any) {
	e.Helper()
	for i := 0; i < len(want); i += 2 {
		name := e.counters + "_" + want[i].(string) + "_total"
		if got := e.reg.Counter(name).Value(); got != uint64(want[i+1].(int)) {
			e.Errorf("%s = %d, want %d", name, got, want[i+1])
		}
	}
}

func (e *env) mustPut(key string, n int, v string) {
	e.Helper()
	if err := e.put(key, n, v); err != nil {
		e.Fatal(err)
	}
}

func (e *env) hits(key string, n int, want string) {
	e.Helper()
	if got, ok := e.get(key, n); !ok || got != want {
		e.Fatalf("Get(%q, %d) = %q, %v; want a hit on %q", key, n, got, ok, want)
	}
}

func (e *env) misses(key string, n int, why string) {
	e.Helper()
	if _, ok := e.get(key, n); ok {
		e.Fatalf("Get(%q, %d) hit: %s", key, n, why)
	}
}

func (e *env) gone(path, why string) {
	e.Helper()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		e.Fatalf("%s still on disk: %s", path, why)
	}
}

// plant writes data where entry (key, n) lives, bypassing the store.
func (e *env) plant(key string, n int, data []byte) string {
	e.Helper()
	path := e.path(key, n)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		e.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		e.Fatal(err)
	}
	return path
}

func (e *env) raw(key string, n int) []byte {
	e.Helper()
	data, err := os.ReadFile(e.path(key, n))
	if err != nil {
		e.Fatal(err)
	}
	return data
}

// files lists every regular file under the store's directory.
func (e *env) files() (names []string) {
	e.Helper()
	err := filepath.WalkDir(e.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			rel, _ := filepath.Rel(e.dir, path)
			names = append(names, rel)
		}
		return err
	})
	if err != nil {
		e.Fatal(err)
	}
	return names
}

// fill stores n entries under distinct keys; entry i is (id(i), i).
func (e *env) fill(n int) {
	e.Helper()
	for i := 0; i < n; i++ {
		e.mustPut(id(i), i, fmt.Sprintf(`{"v":%d}`, i))
	}
}

func id(i int) string { return fmt.Sprintf("key-%d", i) }

// age rewinds the mtime of path by d.
func (e *env) age(path string, d time.Duration) {
	e.Helper()
	past := time.Now().Add(-d)
	if err := os.Chtimes(path, past, past); err != nil {
		e.Fatal(err)
	}
}

func (e *env) mustPrune(opts PruneOptions) PruneStats {
	e.Helper()
	st, err := e.prune(opts)
	if err != nil {
		e.Fatal(err)
	}
	return st
}

func roundTrip(t *testing.T, k kit) {
	e := k.start(t)
	const key = "run key with spaces and θ=0.1 {config}"
	e.misses(key, 7, "empty store")
	e.mustPut(key, 7, "v7")
	e.hits(key, 7, "v7")
	want := 1
	if k.perKey {
		// Another cell or seed under the same key is its own entry.
		e.misses(key, 8, "served a sibling's entry")
		e.mustPut(key, 8, "v8")
		want = 2
	}
	if n, err := e.count(key); err != nil || n != want {
		t.Fatalf("count = %d (%v), want %d", n, err, want)
	}
	e.counted("hits", 1, "misses", want, "stores", want, "corrupt", 0, "evicted", 0)
	if e.clear != nil {
		if err := e.clear(key); err != nil {
			t.Fatal(err)
		}
		if n, err := e.count(key); err != nil || n != 0 {
			t.Fatalf("count after Clear = %d (%v)", n, err)
		}
	}
}

func rejectsNil(t *testing.T, k kit) {
	if err := k.start(t).putNil(); err == nil {
		t.Fatal("nil value accepted")
	}
}

// Garbage and truncated entries must read as misses (never errors) and be
// evicted, and the next Put must repair them.
func corruptIsMiss(t *testing.T, k kit) {
	cases := map[string]func([]byte) []byte{
		"garbage":   func([]byte) []byte { return []byte("not json at all {{{") },
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func([]byte) []byte { return nil },
	}
	for name, text := range k.malformed {
		cases[name] = func([]byte) []byte { return []byte(text) }
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			e := k.start(t)
			e.mustPut("k", 7, "x")
			path := e.plant("k", 7, corrupt(e.raw("k", 7)))
			e.misses("k", 7, "corrupt entry served")
			e.counted("corrupt", 1, "evicted", 1, "misses", 1, "hits", 0)
			e.gone(path, "corrupt entry not evicted")
			e.mustPut("k", 7, "x")
			e.hits("k", 7, "x")
		})
	}
}

// An entry written under another schema version is stale: miss + evict,
// but not corrupt.
func staleSchema(t *testing.T, k kit) {
	cases := map[string]func([]byte) []byte{
		"bumped": func(b []byte) []byte { return bytes.Replace(b, []byte(`"schema":1`), []byte(`"schema":2`), 1) },
	}
	for name, text := range k.skewed {
		cases[name] = func([]byte) []byte { return []byte(text) }
	}
	for name, skew := range cases {
		t.Run(name, func(t *testing.T) {
			e := k.start(t)
			e.mustPut("k", 7, "x")
			path := e.plant("k", 7, skew(e.raw("k", 7)))
			e.misses("k", 7, "stale-schema entry served")
			e.counted("evicted", 1, "misses", 1, "corrupt", 0)
			e.gone(path, "stale entry not evicted")
		})
	}
}

// misplaced simulates a name collision: the intact entry of (srcKey, srcN)
// also sits at the path of (key, n). The full identity echoed inside the
// entry must refuse it there, and leave the original alone.
func misplaced(t *testing.T, k kit, srcKey string, srcN int, key string, n int) {
	e := k.start(t)
	e.mustPut(srcKey, srcN, "theirs")
	path := e.plant(key, n, e.raw(srcKey, srcN))
	e.misses(key, n, "foreign entry served")
	e.counted("evicted", 1, "corrupt", 0)
	e.gone(path, "foreign entry not evicted")
	e.hits(srcKey, srcN, "theirs")
}

func foreignKey(t *testing.T, k kit) { misplaced(t, k, "some other configuration", 7, "k", 7) }
func foreignN(t *testing.T, k kit)   { misplaced(t, k, "k", 9, "k", 7) }

func overwrites(t *testing.T, k kit) {
	e := k.start(t)
	for _, v := range []string{"a", "b", "c"} {
		e.mustPut("k", 3, v)
	}
	e.hits("k", 3, "c")
	if n, _ := e.count("k"); n != 1 {
		t.Fatalf("count = %d after overwrites", n)
	}
}

// Put must never leave temp files behind, and every entry must land under
// its final .json name.
func noTempLeft(t *testing.T, k kit) {
	e := k.start(t)
	for i, key := range []string{"a", "b", "a"} {
		e.mustPut(key, i%2, "v")
	}
	names := e.files()
	if len(names) != 2 {
		t.Fatalf("store holds %v, want 2 entries", names)
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".json") {
			t.Fatalf("leftover non-entry file %s", name)
		}
	}
}

// The kill-mid-write case: a half-written temp file and no final file is
// a miss on reopen, is never counted as an entry, and does not get in the
// way of the next Put.
func strayTemp(t *testing.T, k kit) {
	e := k.start(t)
	e.mustPut("k", 7, "x")
	half := e.raw("k", 7)[:10]
	os.Remove(e.path("k", 7))
	stray := filepath.Join(filepath.Dir(e.path("k", 7)), "put-123456.tmp")
	if err := os.WriteFile(stray, half, 0o644); err != nil {
		t.Fatal(err)
	}
	e.reopen()
	e.misses("k", 7, "half-written temp file served")
	e.counted("misses", 1, "corrupt", 0, "evicted", 0)
	if n, err := e.count("k"); err != nil || n != 0 {
		t.Fatalf("count = %d (%v) with only a stray temp file", n, err)
	}
	e.mustPut("k", 7, "x")
	e.hits("k", 7, "x")
	if data, err := os.ReadFile(stray); err != nil || !bytes.Equal(data, half) {
		t.Fatalf("stray temp file disturbed: %q, %v", data, err)
	}
}

// Readers racing writers of the same entries see a whole value or a miss,
// never a torn entry (run under -race by tier 2).
func concurrent(t *testing.T, k kit) {
	e := k.start(t)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				n := (g + i) % 3
				if g%2 == 0 {
					if err := e.put(id(n), n, fmt.Sprintf("value-%d", n)); err != nil {
						t.Error(err)
					}
				} else if got, ok := e.get(id(n), n); ok && got != fmt.Sprintf("value-%d", n) {
					t.Errorf("entry %d read as %q", n, got)
				}
			}
		}(g)
	}
	wg.Wait()
	e.counted("corrupt", 0, "evicted", 0, "stores", 4*40)
	if names := e.files(); len(names) != 3 {
		t.Fatalf("store holds %v, want 3 entries and no temp files", names)
	}
}

func clearScoped(t *testing.T, k kit) {
	e := k.start(t)
	e.mustPut("run A", 0, "a")
	e.mustPut("run B", 0, "b")
	if err := e.clear("run A"); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.count("run A"); n != 0 {
		t.Fatalf("run A kept %d entries", n)
	}
	e.hits("run B", 0, "b")
}

func usage(t *testing.T, k kit) {
	e := k.start(t)
	if entries, size, err := e.usage(); err != nil || entries != 0 || size != 0 {
		t.Fatalf("empty store reports %d entries, %d bytes (%v)", entries, size, err)
	}
	e.fill(3)
	entries, size, err := e.usage()
	if err != nil || entries != 3 || size <= 0 {
		t.Fatalf("usage = %d entries, %d bytes (%v), want 3 and > 0", entries, size, err)
	}
}

func pruneByAge(t *testing.T, k kit) {
	e := k.start(t)
	e.fill(4)
	e.age(e.path(id(0), 0), 2*time.Hour)
	e.age(e.path(id(1), 1), 3*time.Hour)
	if st := e.mustPrune(PruneOptions{MaxAge: time.Hour}); st.Removed != 2 || st.Kept != 2 {
		t.Fatalf("removed %d kept %d, want 2/2", st.Removed, st.Kept)
	}
	e.counted("evicted", 2)
	e.misses(id(0), 0, "aged-out entry still readable")
	e.hits(id(2), 2, `{"v":2}`)
	if !k.perKey {
		return
	}
	// Emptied per-key subdirectories are cleaned up; survivors keep theirs.
	for i := 0; i < 4; i++ {
		_, err := os.Stat(filepath.Dir(e.path(id(i), i)))
		if gone := os.IsNotExist(err); gone != (i < 2) {
			t.Errorf("key dir %d: gone=%v, want %v", i, gone, i < 2)
		}
	}
}

func pruneBySizeEvictsLRU(t *testing.T, k kit) {
	e := k.start(t)
	e.fill(4)
	// Stagger recency: entry 0 oldest ... entry 3 newest.
	for i := 0; i < 4; i++ {
		e.age(e.path(id(i), i), time.Duration(4-i)*time.Hour)
	}
	_, total, err := e.usage()
	if err != nil {
		t.Fatal(err)
	}
	budget := total / 2 // two entries: the two least recently used must go
	st := e.mustPrune(PruneOptions{MaxBytes: budget})
	if st.Removed != 2 || st.Kept != 2 || st.Remaining > budget {
		t.Fatalf("removed %d kept %d remaining %d, want 2/2 within %d", st.Removed, st.Kept, st.Remaining, budget)
	}
	for i := 0; i < 4; i++ {
		if _, ok := e.get(id(i), i); ok != (i >= 2) {
			t.Errorf("entry %d: survived=%v, want %v", i, ok, i >= 2)
		}
	}
}

// A hit touches the entry, so a recently read entry outlives an unread one
// of the same age.
func getRefreshesRecency(t *testing.T, k kit) {
	e := k.start(t)
	e.fill(2)
	e.age(e.path(id(0), 0), 2*time.Hour)
	e.age(e.path(id(1), 1), 2*time.Hour)
	e.hits(id(1), 1, `{"v":1}`)
	if st := e.mustPrune(PruneOptions{MaxAge: time.Hour}); st.Removed != 1 {
		t.Fatalf("removed %d, want 1 (only the unread entry)", st.Removed)
	}
	e.hits(id(1), 1, `{"v":1}`)
}

// Only the first hit on an entry touches it, once per open store: a
// served cell's sample is read more than once in a run, and the touch
// orders only the next open's prune. A reopened store touches again.
func getTouchesOnce(t *testing.T, k kit) {
	e := k.start(t)
	e.fill(1)
	path := e.path(id(0), 0)
	mtime := func() time.Duration {
		e.Helper()
		info, err := os.Stat(path)
		if err != nil {
			e.Fatal(err)
		}
		return time.Since(info.ModTime())
	}
	e.age(path, 2*time.Hour)
	e.hits(id(0), 0, `{"v":0}`)
	if mtime() > time.Hour {
		t.Fatal("the first hit left the entry backdated")
	}
	e.age(path, 2*time.Hour)
	e.hits(id(0), 0, `{"v":0}`)
	if mtime() < time.Hour {
		t.Fatal("a second hit in the same store touched the entry again")
	}
	e.reopen()
	e.hits(id(0), 0, `{"v":0}`)
	if mtime() > time.Hour {
		t.Fatal("the first hit after a reopen left the entry backdated")
	}
}

func pruneZeroOptionsIsNoop(t *testing.T, k kit) {
	e := k.start(t)
	e.fill(3)
	e.age(e.path(id(0), 0), 1000*time.Hour)
	if st := e.mustPrune(PruneOptions{}); st.Removed != 0 || st.Kept != 3 {
		t.Fatalf("zero options removed %d kept %d, want 0/3", st.Removed, st.Kept)
	}
}

func pruneRemovesStaleTempFiles(t *testing.T, k kit) {
	e := k.start(t)
	e.fill(1)
	tmp, err := os.CreateTemp(filepath.Dir(e.path(id(0), 0)), "put-*.tmp")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()
	e.age(tmp.Name(), 2*time.Hour)
	e.mustPrune(PruneOptions{MaxAge: time.Hour})
	e.gone(tmp.Name(), "stale temp file survived")
	e.hits(id(0), 0, `{"v":0}`)
}

// An entry os.Remove refuses for a reason other than not-exist (a
// read-only cache directory; here, so that it holds for root too, a
// non-empty directory matching the entry glob) is kept, reported, and
// still counts against the size budget.
func pruneKeepsUndeletable(t *testing.T, k kit) {
	e := k.start(t)
	e.fill(3)
	stuck := filepath.Join(filepath.Dir(e.path(id(0), 0)), strings.Replace(filepath.Base(e.path(id(0), 0)), ".json", "x.json", 1))
	if err := os.MkdirAll(filepath.Join(stuck, "pin"), 0o755); err != nil {
		t.Fatal(err)
	}
	e.age(stuck, 10*time.Hour)
	for i := 0; i < 3; i++ {
		e.age(e.path(id(i), i), time.Duration(4-i)*time.Hour)
	}
	info, err := os.Stat(stuck)
	if err != nil {
		t.Fatal(err)
	}
	per := int64(len(e.raw(id(2), 2)))
	// Room for the stuck entry and one more: the two oldest real entries go.
	st := e.mustPrune(PruneOptions{MaxBytes: info.Size() + per})
	if st.Removed != 2 || st.Kept != 2 || st.Remaining != info.Size()+per {
		t.Fatalf("removed %d kept %d remaining %d, want 2/2/%d", st.Removed, st.Kept, st.Remaining, info.Size()+per)
	}
	e.hits(id(2), 2, `{"v":2}`)
}

// testdata/parent holds one entry per store, written by the last commit on
// which each store had its own file code. They must still read as hits, and
// storing the same values must reproduce the same file names and bytes.
func TestParentFixtures(t *testing.T) {
	for name, f := range map[string]struct {
		key string
		n   int
		v   string
	}{
		"store":      {"fixture solve key θ=0.1", 0, "MTSD"},
		"checkpoint": {"fixture run key", 7, "payload-7"},
		"samples":    {"fixture sample key {config}", 0x2a, `{"values":{"x":"1p+0"}}`},
	} {
		t.Run(name, func(t *testing.T) {
			e := kits[name].start(t)
			rel, _ := filepath.Rel(e.dir, e.path(f.key, f.n))
			want, err := os.ReadFile(filepath.Join("testdata", "parent", rel))
			if err != nil {
				t.Fatalf("entry path moved: %v", err)
			}
			e.plant(f.key, f.n, want)
			e.hits(f.key, f.n, f.v)
			e.mustPut(f.key, f.n, f.v)
			if got := e.raw(f.key, f.n); !bytes.Equal(got, want) {
				t.Fatalf("entry bytes changed:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// Checkpoints are cleared, never pruned, so a hit leaves the mtime alone.
func TestCheckpointGetDoesNotTouch(t *testing.T) {
	e := checkpoint.start(t)
	e.mustPut("k", 0, "x")
	e.age(e.path("k", 0), 2*time.Hour)
	e.hits("k", 0, "x")
	if info, err := os.Stat(e.path("k", 0)); err != nil || time.Since(info.ModTime()) < time.Hour {
		t.Fatalf("checkpoint hit refreshed the mtime (%v)", err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	each(t, func(t *testing.T, k kit) {
		if _, err := k.open(""); err == nil {
			t.Fatal("empty dir accepted")
		}
	})
}

func TestOpenCreatesNestedDir(t *testing.T) {
	each(t, func(t *testing.T, k kit) {
		dir := filepath.Join(t.TempDir(), "a", "b", "cache")
		if _, err := k.open(dir); err != nil {
			t.Fatal(err)
		}
		if info, err := os.Stat(dir); err != nil || !info.IsDir() {
			t.Fatalf("nested dir missing (%v)", err)
		}
	})
}

func TestStrayTempNeverServed(t *testing.T) { each(t, strayTemp) }
func TestConcurrentPutGet(t *testing.T)     { each(t, concurrent) }

func TestPruneKeepsUndeletableEntry(t *testing.T) {
	each(t, func(t *testing.T, k kit) {
		if !k.prunable {
			t.Skip("layout is cleared, never pruned")
		}
		pruneKeepsUndeletable(t, k)
	})
}

// The names below predate the shared suite; each binds one contract to the
// store it was first written for.
func TestPutGetRoundTrip(t *testing.T)            { roundTrip(t, solve) }
func TestCorruptEntryIsMiss(t *testing.T)         { corruptIsMiss(t, solve) }
func TestSchemaBumpInvalidates(t *testing.T)      { staleSchema(t, solve) }
func TestKeyMismatchIsMiss(t *testing.T)          { foreignKey(t, solve) }
func TestPutIsAtomic(t *testing.T)                { overwrites(t, solve); noTempLeft(t, solve) }
func TestUsage(t *testing.T)                      { usage(t, solve) }
func TestPruneByAge(t *testing.T)                 { pruneByAge(t, solve) }
func TestPruneBySizeEvictsLRU(t *testing.T)       { pruneBySizeEvictsLRU(t, solve) }
func TestGetRefreshesRecency(t *testing.T)        { getRefreshesRecency(t, solve) }
func TestGetTouchesOnce(t *testing.T)             { getTouchesOnce(t, solve) }
func TestPruneZeroOptionsIsNoop(t *testing.T)     { pruneZeroOptionsIsNoop(t, solve) }
func TestPruneRemovesStaleTempFiles(t *testing.T) { pruneRemovesStaleTempFiles(t, solve) }

func TestCheckpointRoundTrip(t *testing.T)            { roundTrip(t, checkpoint) }
func TestCheckpointRejectsNilPayload(t *testing.T)    { rejectsNil(t, checkpoint) }
func TestCheckpointCorruptEntryEvicted(t *testing.T)  { corruptIsMiss(t, checkpoint) }
func TestCheckpointSchemaMismatchIsMiss(t *testing.T) { staleSchema(t, checkpoint) }
func TestCheckpointKeyCollisionSafe(t *testing.T)     { foreignKey(t, checkpoint) }
func TestCheckpointCellMismatchIsMiss(t *testing.T)   { foreignN(t, checkpoint) }
func TestCheckpointClearIsScoped(t *testing.T)        { clearScoped(t, checkpoint) }
func TestCheckpointPutOverwrites(t *testing.T)        { overwrites(t, checkpoint) }
func TestCheckpointPutLeavesNoTempFiles(t *testing.T) { noTempLeft(t, checkpoint) }

func TestSampleStorePutGetRoundTrip(t *testing.T)        { roundTrip(t, samples) }
func TestSampleStoreRejectsNilPayload(t *testing.T)      { rejectsNil(t, samples) }
func TestSampleStoreCorruptEntryIsMiss(t *testing.T)     { corruptIsMiss(t, samples) }
func TestSampleStoreSchemaBumpInvalidates(t *testing.T)  { staleSchema(t, samples) }
func TestSampleStoreKeyEchoMismatchIsMiss(t *testing.T)  { foreignKey(t, samples) }
func TestSampleStoreSeedMismatchIsMiss(t *testing.T)     { foreignN(t, samples) }
func TestSampleStoreClearIsScoped(t *testing.T)          { clearScoped(t, samples) }
func TestSampleStoreAtomicWrites(t *testing.T)           { overwrites(t, samples); noTempLeft(t, samples) }
func TestSampleStoreUsage(t *testing.T)                  { usage(t, samples) }
func TestSampleStorePruneByAge(t *testing.T)             { pruneByAge(t, samples) }
func TestSampleStorePruneBySizeEvictsLRU(t *testing.T)   { pruneBySizeEvictsLRU(t, samples) }
func TestSampleStoreGetRefreshesRecency(t *testing.T)    { getRefreshesRecency(t, samples) }
func TestSampleStoreGetTouchesOnce(t *testing.T)         { getTouchesOnce(t, samples) }
func TestSampleStorePruneZeroOptionsIsNoop(t *testing.T) { pruneZeroOptionsIsNoop(t, samples) }
func TestSampleStorePruneRemovesStaleTempFiles(t *testing.T) {
	pruneRemovesStaleTempFiles(t, samples)
}

// Classes with zero entry rate carry NaN times (metrics.PerClass's
// contract); plain JSON rejects NaN, so the wire format must round-trip
// every IEEE-754 value bit-exactly, including NaN and ±Inf.
func TestNonFiniteFloatsRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := &metrics.SchemeResult{
		Scheme: "CMFSD",
		Classes: []metrics.PerClass{
			{Class: 1, EntryRate: 0, DownloadTime: math.NaN(), OnlineTime: math.NaN()},
			{Class: 2, EntryRate: 0.25, DownloadTime: 100, OnlineTime: math.Inf(1)},
		},
	}
	if err := s.Put("k", want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("k")
	if !ok {
		t.Fatal("miss after Put")
	}
	for i := range want.Classes {
		w, g := want.Classes[i], got.Classes[i]
		for name, pair := range map[string][2]float64{
			"lambda":   {w.EntryRate, g.EntryRate},
			"download": {w.DownloadTime, g.DownloadTime},
			"online":   {w.OnlineTime, g.OnlineTime},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("class %d %s not bit-identical: %v vs %v", i+1, name, pair[0], pair[1])
			}
		}
	}
}
