// Package diskcache holds the runner's three persistent stores: the solve
// cache's disk tier (Store), a fabric coordinator's per-cell checkpoints
// (CheckpointStore) and simulator replica samples (SampleStore), each a
// layout over one keyed atomic file store. DESIGN.md, "Keyed atomic file
// store", has the layout table and the durability contract.
//
// Keys are opaque strings into which the caller folds everything the value
// depends on (see runner.Key.Fingerprint). A store hashes the key into a
// file or directory name and echoes it in full inside every entry, so a
// hash collision can never serve the wrong value.
package diskcache

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"strconv"

	"mfdl/internal/metrics"
	"mfdl/internal/obs"
)

// SchemaVersion is recorded in every entry; bump it whenever the entry
// format or the meaning of stored results changes. Entries written under
// any other version are evicted as stale.
const SchemaVersion = 1

// entry is the on-disk envelope of one cached solve, as Put renders it;
// decodeSolve reads it back.
type entry struct {
	Schema int         `json:"schema"`
	Key    string      `json:"key"` // in full, unhashed
	Result *wireResult `json:"result"`
}

// bits renders a float64 in JSON as its IEEE-754 bit pattern in hex:
// encoding/json rejects the NaN times that classes with zero entry rate
// legitimately carry (see metrics.PerClass), and bit patterns round-trip
// every value exactly, so byte-identical output never hinges on float
// formatting.
type bits float64

func (b bits) MarshalJSON() ([]byte, error) {
	return json.Marshal(strconv.FormatUint(math.Float64bits(float64(b)), 16))
}

// wireResult mirrors metrics.SchemeResult with bit-pattern floats.
type wireResult struct {
	Scheme  string      `json:"scheme"`
	Classes []wireClass `json:"classes"`
}

type wireClass struct {
	Class        int  `json:"class"`
	EntryRate    bits `json:"lambda"`
	DownloadTime bits `json:"download"`
	OnlineTime   bits `json:"online"`
}

func toWire(r *metrics.SchemeResult) *wireResult {
	w := &wireResult{Scheme: r.Scheme, Classes: make([]wireClass, len(r.Classes))}
	for i, c := range r.Classes {
		w.Classes[i] = wireClass{
			Class:     c.Class,
			EntryRate: bits(c.EntryRate), DownloadTime: bits(c.DownloadTime), OnlineTime: bits(c.OnlineTime),
		}
	}
	return w
}

// Store is the disk tier of the solve cache: one entry per solved steady
// state, shared by every process that points at the same directory.
type Store struct{ fileStore }

// Open ensures dir exists and returns a store over it.
func Open(dir string) (*Store, error) {
	fs, err := open(dir, "", layout{counters: "diskcache", file: "*.json", touch: true})
	if err != nil {
		return nil, err
	}
	return &Store{fs}, nil
}

// WithObs counts the store's traffic in the registry (nil is a no-op) as
// diskcache_{hits,misses,stores,corrupt,evicted}_total.
func (s *Store) WithObs(reg *obs.Registry) *Store {
	s.observe(reg)
	return s
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, hashName(key)+".json")
}

// Get returns the cached result for key, or false on a miss.
func (s *Store) Get(key string) (res *metrics.SchemeResult, ok bool) {
	ok = s.read(s.path(key), func(data []byte) verdict {
		schema, echo, r, ok := decodeSolve(data)
		switch {
		case !ok:
			return corrupt
		case schema != SchemaVersion:
			// Another build's entry: its result answers to that build's
			// Validate, not this one's.
			return stale
		case r.Validate() != nil:
			return corrupt
		case string(echo) != key:
			return stale
		}
		res = r
		return hit
	})
	return res, ok
}

// Put stores the result under key, replacing any previous entry.
func (s *Store) Put(key string, res *metrics.SchemeResult) error {
	if res == nil {
		return fmt.Errorf("diskcache: nil result")
	}
	data, err := json.Marshal(entry{Schema: SchemaVersion, Key: key, Result: toWire(res)})
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return s.write(s.path(key), data)
}

// Usage reports the store's entry count and total size.
func (s *Store) Usage() (entries int, bytes int64, err error) { return s.usage() }

// Prune evicts entries by age and/or total size, least recently used first.
func (s *Store) Prune(opts PruneOptions) (PruneStats, error) { return s.prune(opts) }

// CheckpointSchemaVersion is the checkpoint entries' (and so the fabric
// wire format's) own schema version.
const CheckpointSchemaVersion = 1

// Entry is the envelope of one completed cell — both the on-disk
// checkpoint format and the fabric wire format (a worker POSTs exactly
// the bytes the coordinator persists). The payload is opaque here (the
// runner encodes it with gob, which unlike JSON round-trips NaN and ±Inf);
// the envelope carries the identity that keeps a cell out of the wrong run.
type Entry struct {
	Schema int `json:"schema"`
	// Key is the full (unhashed) run key: everything that determines the
	// run's cell values.
	Key string `json:"key"`
	// Cell is the linear cell index the payload belongs to.
	Cell    int    `json:"cell"`
	Payload []byte `json:"payload"`
}

// Encode renders the entry as its canonical JSON envelope.
func (e Entry) Encode() ([]byte, error) {
	if e.Payload == nil {
		return nil, fmt.Errorf("diskcache: nil checkpoint payload")
	}
	data, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return data, nil
}

// DecodeEntry parses an entry envelope. It rejects structural garbage
// (unparsable JSON, missing payload) but leaves schema and identity checks
// to the caller, which knows which run the entry is supposed to belong to.
func DecodeEntry(data []byte) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil {
		return Entry{}, fmt.Errorf("diskcache: entry: %w", err)
	}
	if e.Payload == nil {
		return Entry{}, fmt.Errorf("diskcache: entry has no payload")
	}
	return e, nil
}

// CheckpointStore persists the cells a fabric coordinator has collected —
// one subdirectory per run key, one file per completed cell — so a
// coordinator killed at any instant resumes cleanly. Checkpoints are
// cleared, never pruned.
type CheckpointStore struct{ fileStore }

// OpenCheckpoint ensures dir exists and returns a checkpoint store over
// it. The directory may be shared with the other two stores.
func OpenCheckpoint(dir string) (*CheckpointStore, error) {
	fs, err := open(dir, "checkpoint ", layout{counters: "checkpoint", sub: "run-", file: "cell-*.json"})
	if err != nil {
		return nil, err
	}
	return &CheckpointStore{fs}, nil
}

func (s *CheckpointStore) cellPath(runKey string, cell int) string {
	return filepath.Join(s.keyDir(runKey), fmt.Sprintf("cell-%d.json", cell))
}

// Get returns the payload checkpointed for (runKey, cell), or false on a miss.
func (s *CheckpointStore) Get(runKey string, cell int) (payload []byte, ok bool) {
	ok = s.read(s.cellPath(runKey, cell), func(data []byte) verdict {
		e, err := DecodeEntry(data)
		if err != nil {
			return corrupt
		}
		if e.Schema != CheckpointSchemaVersion || e.Key != runKey || e.Cell != cell {
			return stale
		}
		payload = e.Payload
		return hit
	})
	return payload, ok
}

// PutEntry checkpoints an entry of the current schema under its own key
// and cell, replacing any previous entry: the path a coordinator takes
// with an envelope off the wire.
func (s *CheckpointStore) PutEntry(e Entry) error {
	if e.Schema != CheckpointSchemaVersion {
		return fmt.Errorf("diskcache: entry schema %d, this build speaks %d", e.Schema, CheckpointSchemaVersion)
	}
	data, err := e.Encode()
	if err != nil {
		return err
	}
	return s.write(s.cellPath(e.Key, e.Cell), data)
}

// Clear removes every checkpoint of the run, as a run that completes does.
func (s *CheckpointStore) Clear(runKey string) error { return s.clear(runKey) }

// SampleStoreSchemaVersion is the sample entries' own schema version.
const SampleStoreSchemaVersion = 1

// sampleEntry is the on-disk envelope of one simulator replica sample.
// The seed crosses JSON as a hex string because a uint64 does not survive
// a float64-typed JSON number.
type sampleEntry struct {
	Schema int `json:"schema"`
	// Key is the full (unhashed) sample key: everything that determines
	// the sample except the replica seed.
	Key  string `json:"key"`
	Seed string `json:"seed"`
	// Payload is the caller-encoded sample (see replica.EncodeSample).
	Payload []byte `json:"payload"`
}

// SampleStore persists simulator replica samples keyed by (configuration
// key, replica seed): one subdirectory per key, one file per seed. A
// sample is a pure function of its key and seed, so a re-run with a larger
// replica count finds every earlier sample on disk and simulates only the
// new seeds. The same store backs local runs, sequential stopping and the
// distributed fabric.
type SampleStore struct{ fileStore }

// OpenSamples ensures dir exists and returns a sample store over it. The
// directory may be shared with the other two stores.
func OpenSamples(dir string) (*SampleStore, error) {
	fs, err := open(dir, "sample ", layout{counters: "samplestore", sub: "samples-", file: "s-*.json", touch: true})
	if err != nil {
		return nil, err
	}
	return &SampleStore{fs}, nil
}

// WithObs counts the store's traffic in the registry (nil is a no-op) as
// samplestore_{hits,misses,stores,corrupt,evicted}_total.
func (s *SampleStore) WithObs(reg *obs.Registry) *SampleStore {
	s.observe(reg)
	return s
}

func (s *SampleStore) samplePath(key string, seed uint64) string {
	return filepath.Join(s.keyDir(key), fmt.Sprintf("s-%016x.json", seed))
}

// Get returns the payload stored for (key, seed), or false on a miss.
func (s *SampleStore) Get(key string, seed uint64) (payload []byte, ok bool) {
	ok = s.read(s.samplePath(key, seed), func(data []byte) verdict {
		var e sampleEntry
		if err := json.Unmarshal(data, &e); err != nil || e.Payload == nil {
			return corrupt
		}
		stored, err := strconv.ParseUint(e.Seed, 16, 64)
		if err != nil {
			return corrupt
		}
		if e.Schema != SampleStoreSchemaVersion || e.Key != key || stored != seed {
			return stale
		}
		payload = e.Payload
		return hit
	})
	return payload, ok
}

// Put stores one sample payload, replacing any previous entry.
func (s *SampleStore) Put(key string, seed uint64, payload []byte) error {
	if payload == nil {
		return fmt.Errorf("diskcache: nil sample payload")
	}
	data, err := json.Marshal(sampleEntry{
		Schema: SampleStoreSchemaVersion, Key: key,
		Seed: fmt.Sprintf("%016x", seed), Payload: payload,
	})
	if err != nil {
		return fmt.Errorf("diskcache: %w", err)
	}
	return s.write(s.samplePath(key, seed), data)
}

// Len returns the number of samples currently stored under key.
func (s *SampleStore) Len(key string) (int, error) { return s.count(key) }

// Prune evicts samples by age and/or total size, least recently used first.
func (s *SampleStore) Prune(opts PruneOptions) (PruneStats, error) { return s.prune(opts) }
