package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// SnapshotSchemaVersion is bumped whenever the snapshot wire shape
// changes incompatibly. DecodeSnapshot and Merge reject other versions,
// so a fleet of mixed builds fails loudly instead of merging garbage.
const SnapshotSchemaVersion = 1

// Snapshot is a registry frozen to values: every family and series with
// its counts, gauge values and histogram buckets, detached from the live
// atomics. It is the unit of fleet telemetry — a worker snapshots its
// registry, ships the canonical JSON encoding, and the coordinator
// merges any number of such snapshots into one fleet view.
//
// Float values travel as strings in Prometheus number format
// (strconv 'g'/-1 shortest round-trip, "+Inf"/"-Inf"/"NaN"), so a
// decoded snapshot is bit-exact and the codec never depends on
// encoding/json's float behavior.
//
// A snapshot taken by Registry.Snapshot keeps the registry's creation
// order (rendering it writes the same bytes the registry would);
// EncodeSnapshot and Merge normalize to sorted order, which is what
// makes the canonical bytes — and any merge result — independent of the
// order series were created or merged in.
type Snapshot struct {
	Schema   int              `json:"schema"`
	Families []FamilySnapshot `json:"families,omitempty"`
}

// FamilySnapshot is one metric name: its kind, bucket bounds (histograms
// only) and every label variant.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Kind   string           `json:"kind"`
	Bounds []string         `json:"bounds,omitempty"`
	Series []SeriesSnapshot `json:"series,omitempty"`
}

// SeriesSnapshot is one (labels → value) series. Exactly one value group
// is meaningful, matching the family kind: Count for counters, Value for
// gauges, Buckets+Sum for histograms.
//
// Buckets are per-bucket (non-cumulative) counts, the last element being
// the +Inf overflow bucket, so merging is element-wise addition. Sum
// maps a source id to that source's contribution to the histogram sum —
// a local snapshot has the single source "" — and the rendered _sum is
// the parts reduced in sorted-source order, which keeps merged output
// independent of merge order despite float addition being
// non-associative.
type SeriesSnapshot struct {
	Labels  []Label           `json:"labels,omitempty"`
	Count   uint64            `json:"count,omitempty"`
	Value   string            `json:"value,omitempty"`
	Buckets []uint64          `json:"buckets,omitempty"`
	Sum     map[string]string `json:"sum,omitempty"`
}

// sumTotal reduces the per-source sum parts in sorted-source order.
func (se *SeriesSnapshot) sumTotal() float64 {
	keys := make([]string, 0, len(se.Sum))
	for k := range se.Sum {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		v, _ := strconv.ParseFloat(se.Sum[k], 64)
		total += v
	}
	return total
}

// boundsFloats parses the family's bucket bounds.
func (f *FamilySnapshot) boundsFloats() []float64 {
	out := make([]float64, len(f.Bounds))
	for i, b := range f.Bounds {
		out[i], _ = strconv.ParseFloat(b, 64)
	}
	return out
}

// Snapshot freezes every family and series to values. The registry lock
// is held only while the structure and atomics are copied — never across
// encoding or network writes. Families and series appear in creation
// order; labels within a series are already sorted. Nil-safe: a nil
// registry yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Schema: SnapshotSchemaVersion}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Kind: f.kind.String()}
		if f.kind == histogramKind {
			fs.Bounds = make([]string, len(f.bounds))
			for i, b := range f.bounds {
				fs.Bounds[i] = fnum(b)
			}
		}
		for _, sig := range f.order {
			inst := f.insts[sig]
			ss := SeriesSnapshot{Labels: append([]Label(nil), inst.labels...)}
			switch f.kind {
			case counterKind:
				ss.Count = inst.c.Value()
			case gaugeKind:
				ss.Value = fnum(inst.g.Value())
			case histogramKind:
				ss.Buckets = inst.h.BucketCounts()
				ss.Sum = map[string]string{"": fnum(inst.h.Sum())}
			}
			fs.Series = append(fs.Series, ss)
		}
		s.Families = append(s.Families, fs)
	}
	return s
}

// kindFromString is the inverse of kind.String.
func kindFromString(s string) (kind, bool) {
	switch s {
	case "counter":
		return counterKind, true
	case "gauge":
		return gaugeKind, true
	case "histogram":
		return histogramKind, true
	}
	return 0, false
}

// normalize sorts the snapshot into canonical order: labels by key
// within each series, series by label signature within each family,
// families by name. Encode and Merge call it so their results do not
// depend on creation or merge order.
func (s *Snapshot) normalize() {
	for fi := range s.Families {
		f := &s.Families[fi]
		for si := range f.Series {
			ls := f.Series[si].Labels
			sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
		}
		sort.Slice(f.Series, func(i, j int) bool {
			return signature(f.Series[i].Labels) < signature(f.Series[j].Labels)
		})
	}
	sort.Slice(s.Families, func(i, j int) bool {
		return s.Families[i].Name < s.Families[j].Name
	})
}

// validate checks a normalized snapshot: schema version, legal names and
// label keys with none repeated, known kinds, bucket slices matching the
// bounds, parseable float strings, and no duplicate families or series.
func (s *Snapshot) validate() error {
	if s.Schema != SnapshotSchemaVersion {
		return fmt.Errorf("obs: snapshot schema %d, this build speaks %d", s.Schema, SnapshotSchemaVersion)
	}
	seenFamily := map[string]bool{}
	for fi := range s.Families {
		f := &s.Families[fi]
		if !validName(f.Name) {
			return fmt.Errorf("obs: snapshot has invalid metric name %q", f.Name)
		}
		if seenFamily[f.Name] {
			return fmt.Errorf("obs: snapshot has duplicate family %q", f.Name)
		}
		seenFamily[f.Name] = true
		k, ok := kindFromString(f.Kind)
		if !ok {
			return fmt.Errorf("obs: snapshot family %q has unknown kind %q", f.Name, f.Kind)
		}
		if (k == histogramKind) != (len(f.Bounds) > 0) {
			return fmt.Errorf("obs: snapshot family %q: bounds and kind %q disagree", f.Name, f.Kind)
		}
		for _, b := range f.Bounds {
			if _, err := strconv.ParseFloat(b, 64); err != nil {
				return fmt.Errorf("obs: snapshot family %q: bad bound %q", f.Name, b)
			}
		}
		seenSeries := map[string]bool{}
		for si := range f.Series {
			se := &f.Series[si]
			for i, l := range se.Labels {
				if !validLabelKey(l.Key) || i > 0 && se.Labels[i-1].Key == l.Key {
					return fmt.Errorf("obs: snapshot family %q has an invalid or repeated label key %q", f.Name, l.Key)
				}
			}
			sig := signature(se.Labels)
			if seenSeries[sig] {
				return fmt.Errorf("obs: snapshot family %q has duplicate series {%s}", f.Name, sig)
			}
			seenSeries[sig] = true
			switch k {
			case gaugeKind:
				if _, err := strconv.ParseFloat(se.Value, 64); err != nil {
					return fmt.Errorf("obs: snapshot gauge %q{%s}: bad value %q", f.Name, sig, se.Value)
				}
			case histogramKind:
				if len(se.Buckets) != len(f.Bounds)+1 {
					return fmt.Errorf("obs: snapshot histogram %q{%s}: %d buckets for %d bounds",
						f.Name, sig, len(se.Buckets), len(f.Bounds))
				}
				for src, part := range se.Sum {
					if _, err := strconv.ParseFloat(part, 64); err != nil {
						return fmt.Errorf("obs: snapshot histogram %q{%s}: bad sum part %q=%q",
							f.Name, sig, src, part)
					}
				}
			}
		}
	}
	return nil
}

// EncodeSnapshot renders the canonical JSON encoding: schema-versioned,
// families sorted by name, series by label signature, float values as
// shortest round-trip strings. Two snapshots with the same values encode
// to identical bytes regardless of creation or merge order.
func EncodeSnapshot(s Snapshot) ([]byte, error) {
	c := cloneSnapshot(s)
	c.normalize()
	if err := c.validate(); err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// DecodeSnapshot parses and validates a canonical snapshot. The decoded
// snapshot re-encodes to the same bytes (EncodeSnapshot∘DecodeSnapshot
// is the identity on canonical encodings).
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: snapshot: %w", err)
	}
	s.normalize()
	if err := s.validate(); err != nil {
		return Snapshot{}, err
	}
	return s, nil
}

// Clone returns a deep copy sharing no slices or maps with s. Use it to
// try a Merge without risking the original: Merge mutates its target
// family-by-family, so a failed merge can leave the target half-merged —
// merge into a clone and keep it only when Merge returns nil.
func (s Snapshot) Clone() Snapshot {
	return cloneSnapshot(s)
}

// cloneSnapshot deep-copies s so normalization and merging never alias
// the caller's slices.
func cloneSnapshot(s Snapshot) Snapshot {
	c := Snapshot{Schema: s.Schema, Families: make([]FamilySnapshot, len(s.Families))}
	for fi, f := range s.Families {
		cf := FamilySnapshot{
			Name:   f.Name,
			Kind:   f.Kind,
			Bounds: append([]string(nil), f.Bounds...),
			Series: make([]SeriesSnapshot, len(f.Series)),
		}
		for si, se := range f.Series {
			cs := SeriesSnapshot{
				Labels:  append([]Label(nil), se.Labels...),
				Count:   se.Count,
				Value:   se.Value,
				Buckets: append([]uint64(nil), se.Buckets...),
			}
			if se.Sum != nil {
				cs.Sum = make(map[string]string, len(se.Sum))
				for k, v := range se.Sum {
					cs.Sum[k] = v
				}
			}
			cf.Series[si] = cs
		}
		c.Families[fi] = cf
	}
	return c
}

// upsertLabel returns labels with key set to value (replacing an
// existing key, inserting otherwise), sorted.
func upsertLabel(labels []Label, key, value string) []Label {
	out := make([]Label, 0, len(labels)+1)
	replaced := false
	for _, l := range labels {
		if l.Key == key {
			out = append(out, Label{Key: key, Value: value})
			replaced = true
			continue
		}
		out = append(out, l)
	}
	if !replaced {
		out = append(out, Label{Key: key, Value: value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Merge folds a remote snapshot into s under a source identity
// (typically obs.L("worker", id)):
//
//   - counters with identical (name, labels) sum;
//   - histograms with identical (name, labels) bucket-merge — their
//     bounds must be identical, a mismatch is an error — and the remote
//     sum arrives as a new per-source part, so the rendered _sum is
//     reduced in sorted-source order;
//   - gauges (instantaneous values that cannot be summed) are re-labeled
//     with source before insertion, one series per source.
//
// Merge is associative and commutative: merging any number of snapshots
// in any order (and any grouping) yields byte-identical EncodeSnapshot
// output and byte-identical Prometheus text. Each source must be merged
// at most once — a histogram sum part or relabeled gauge arriving twice
// under one source id is an error.
func (s *Snapshot) Merge(remote Snapshot, source Label) error {
	if s.Schema == 0 && len(s.Families) == 0 {
		s.Schema = SnapshotSchemaVersion
	}
	if s.Schema != SnapshotSchemaVersion {
		return fmt.Errorf("obs: merge target schema %d, this build speaks %d", s.Schema, SnapshotSchemaVersion)
	}
	if !validLabelKey(source.Key) || source.Value == "" {
		return fmt.Errorf("obs: merge source %q=%q is not a usable label", source.Key, source.Value)
	}
	rc := cloneSnapshot(remote)
	rc.normalize()
	if err := rc.validate(); err != nil {
		return err
	}
	s.normalize()
	if err := s.validate(); err != nil {
		return err
	}
	for fi := range rc.Families {
		rf := &rc.Families[fi]
		k, _ := kindFromString(rf.Kind)
		tf := s.family(rf.Name)
		if tf == nil {
			s.Families = append(s.Families, FamilySnapshot{
				Name: rf.Name, Kind: rf.Kind,
				Bounds: append([]string(nil), rf.Bounds...),
			})
			tf = &s.Families[len(s.Families)-1]
		}
		if tf.Kind != rf.Kind {
			return fmt.Errorf("obs: merge: metric %q is a %s here, a %s in the remote snapshot",
				rf.Name, tf.Kind, rf.Kind)
		}
		if k == histogramKind && !equalStrings(tf.Bounds, rf.Bounds) {
			return fmt.Errorf("obs: merge: histogram %q bucket bounds differ (%v vs %v)",
				rf.Name, tf.Bounds, rf.Bounds)
		}
		for si := range rf.Series {
			rs := &rf.Series[si]
			switch k {
			case counterKind:
				ts := tf.series(rs.Labels)
				if ts == nil {
					tf.Series = append(tf.Series, *rs)
					continue
				}
				ts.Count += rs.Count
			case gaugeKind:
				labels := upsertLabel(rs.Labels, source.Key, source.Value)
				if tf.series(labels) != nil {
					return fmt.Errorf("obs: merge: gauge %q{%s} already present — source %q merged twice?",
						rf.Name, signature(labels), source.Value)
				}
				tf.Series = append(tf.Series, SeriesSnapshot{Labels: labels, Value: rs.Value})
			case histogramKind:
				ts := tf.series(rs.Labels)
				if ts == nil {
					tf.Series = append(tf.Series, SeriesSnapshot{
						Labels:  rs.Labels,
						Buckets: make([]uint64, len(rs.Buckets)),
						Sum:     map[string]string{},
					})
					ts = &tf.Series[len(tf.Series)-1]
				}
				for i := range rs.Buckets {
					ts.Buckets[i] += rs.Buckets[i]
				}
				if ts.Sum == nil {
					ts.Sum = map[string]string{}
				}
				for src, part := range rs.Sum {
					key := source.Value
					if src != "" {
						key = source.Value + "/" + src
					}
					if _, dup := ts.Sum[key]; dup {
						return fmt.Errorf("obs: merge: histogram %q sum part %q already present — source merged twice?",
							rf.Name, key)
					}
					ts.Sum[key] = part
				}
			}
		}
	}
	s.normalize()
	return nil
}

// family returns the named family, or nil.
func (s *Snapshot) family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// series returns the series with exactly these labels, or nil.
func (f *FamilySnapshot) series(labels []Label) *SeriesSnapshot {
	sig := signature(labels)
	for i := range f.Series {
		if signature(f.Series[i].Labels) == sig {
			return &f.Series[i]
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
