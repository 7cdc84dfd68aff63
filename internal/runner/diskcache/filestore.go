package diskcache

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"mfdl/internal/obs"
)

// layout is what tells one store's directory from another's; the envelope
// codec and identity check live with the exported type.
type layout struct {
	counters string // prefix of <counters>_{hits,misses,stores,corrupt,evicted}_total
	sub      string // prefix of per-key subdirectory names; "" keeps entries in the root
	file     string // glob of entry files inside their directory
	// touch makes the first hit on an entry refresh its mtime, so prune's
	// oldest-first order is least recently used, not least recently
	// written.
	touch bool
}

// fileStore is the keyed atomic file store beneath Store, CheckpointStore
// and SampleStore (DESIGN.md, "Keyed atomic file store"). Safe for
// concurrent use by goroutines and processes: every write is a rename.
type fileStore struct {
	layout
	dir string
	// touched holds the paths a hit has already touched. The touch only
	// orders Prune, which runs when a store is opened, and to the next
	// open an entry's first touch in this one says as much as its last.
	touched *touchSet
	// nil (no-op) until observe attaches a registry.
	hits, misses, stores, corrupt, evicted *obs.Counter
}

// open ensures dir exists; what names its role in the empty-path error.
func open(dir, what string, l layout) (fileStore, error) {
	if dir == "" {
		return fileStore{}, fmt.Errorf("diskcache: empty %sdirectory", what)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fileStore{}, fmt.Errorf("diskcache: %w", err)
	}
	return fileStore{layout: l, dir: dir, touched: &touchSet{seen: map[string]struct{}{}}}, nil
}

// touchSet is a set of paths safe for concurrent use.
type touchSet struct {
	mu   sync.Mutex
	seen map[string]struct{}
}

// first adds path and reports whether it was new.
func (ts *touchSet) first(path string) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if _, ok := ts.seen[path]; ok {
		return false
	}
	ts.seen[path] = struct{}{}
	return true
}

func (s *fileStore) observe(reg *obs.Registry) {
	s.hits = reg.Counter(s.counters + "_hits_total")
	s.misses = reg.Counter(s.counters + "_misses_total")
	s.stores = reg.Counter(s.counters + "_stores_total")
	s.corrupt = reg.Counter(s.counters + "_corrupt_total")
	s.evicted = reg.Counter(s.counters + "_evicted_total")
}

// subdir is the directory holding a key's entries, given the key's hashed
// name or "*" to glob every key; for a flat layout it is the root.
func (s *fileStore) subdir(name string) string {
	if s.sub == "" {
		return s.dir
	}
	return filepath.Join(s.dir, s.sub+name)
}

func (s *fileStore) keyDir(key string) string { return s.subdir(hashName(key)) }

func hashName(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// verdict is a store's judgement of the bytes found at an entry's path.
type verdict int

const (
	hit     verdict = iota
	stale           // decodes, but under another schema version, key, cell or seed
	corrupt         // does not decode
)

// read serves the entry at path: a missing file is a miss, a stale or
// corrupt one is evicted and a miss, anything else is a hit.
func (s *fileStore) read(path string, judge func(data []byte) verdict) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		s.misses.Inc()
		return false
	}
	switch judge(data) {
	case corrupt:
		s.corrupt.Inc()
		fallthrough
	case stale:
		if os.Remove(path) == nil {
			s.evicted.Inc()
		}
		s.misses.Inc()
		return false
	}
	if s.touch {
		if s.touched.first(path) {
			// Best effort: a read-only directory still serves hits.
			now := time.Now()
			_ = os.Chtimes(path, now, now)
		}
	}
	s.hits.Inc()
	return true
}

// write atomically replaces the entry at path. The temp file sits beside
// the target so the rename never crosses a file system; nothing is synced
// (DESIGN.md has the durability contract).
func (s *fileStore) write(path string, data []byte) error {
	dir := filepath.Dir(path)
	if s.sub != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("diskcache: %w", err)
		}
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskcache: %w", err)
	}
	s.stores.Inc()
	return nil
}

func (s *fileStore) count(key string) (int, error) {
	names, err := filepath.Glob(filepath.Join(s.keyDir(key), s.file))
	return len(names), err
}

func (s *fileStore) clear(key string) error {
	if err := os.RemoveAll(s.keyDir(key)); err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return nil
}

type fileInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// scan stats every entry. Entries that vanish mid-scan (a concurrent prune
// or eviction) are skipped, not errors.
func (s *fileStore) scan() (files []fileInfo, bytes int64, err error) {
	names, err := filepath.Glob(filepath.Join(s.subdir("*"), s.file))
	for _, name := range names {
		if info, err := os.Stat(name); err == nil {
			files = append(files, fileInfo{name, info.Size(), info.ModTime()})
			bytes += info.Size()
		}
	}
	return files, bytes, err
}

func (s *fileStore) usage() (entries int, bytes int64, err error) {
	files, bytes, err := s.scan()
	return len(files), bytes, err
}

// PruneOptions selects what Prune removes. A zero value disables its
// criterion; with both zero, Prune removes nothing.
type PruneOptions struct {
	// MaxAge evicts entries neither read nor written for longer than this
	// (recency is the mtime, which a hit refreshes).
	MaxAge time.Duration
	// MaxBytes caps the store's total size: least recently used entries
	// are evicted until the remainder fits.
	MaxBytes int64
}

// PruneStats reports what one Prune pass did.
type PruneStats struct {
	// Removed counts evicted entries; Freed sums their sizes in bytes.
	Removed int
	Freed   int64
	// Kept counts surviving entries; Remaining sums their sizes.
	Kept      int
	Remaining int64
}

// prune evicts entries by age and/or total size, oldest mtime first. An
// entry that vanished mid-pass was pruned by someone else; one that cannot
// be removed (a read-only directory) is kept and still counts against the
// size budget. Temp files of crashed writers go once older than MaxAge,
// and so do the key subdirectories the pass emptied.
func (s *fileStore) prune(opts PruneOptions) (PruneStats, error) {
	var st PruneStats
	files, total, err := s.scan()
	if err != nil {
		return st, err
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	now := time.Now()
	for _, f := range files {
		expired := opts.MaxAge > 0 && now.Sub(f.mtime) > opts.MaxAge
		if expired || (opts.MaxBytes > 0 && total > opts.MaxBytes) {
			err := os.Remove(f.path)
			if err == nil {
				st.Removed++
				st.Freed += f.size
				s.evicted.Inc()
			}
			if err == nil || errors.Is(err, fs.ErrNotExist) {
				total -= f.size
				continue
			}
		}
		st.Kept++
		st.Remaining += f.size
	}
	if opts.MaxAge > 0 {
		tmps, _ := filepath.Glob(filepath.Join(s.subdir("*"), "put-*.tmp"))
		for _, name := range tmps {
			if info, err := os.Stat(name); err == nil && now.Sub(info.ModTime()) > opts.MaxAge {
				os.Remove(name)
			}
		}
	}
	if s.sub != "" {
		// os.Remove refuses non-empty directories, so a concurrent Put can
		// never lose its entries here.
		dirs, _ := filepath.Glob(s.subdir("*"))
		for _, dir := range dirs {
			_ = os.Remove(dir)
		}
	}
	return st, nil
}
