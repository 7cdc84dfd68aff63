package replica

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"mfdl/internal/rng"
	"mfdl/internal/stats"
)

// SampleSchemaVersion is embedded in every encoded Sample and checked on
// decode, so processes built from different revisions of the sample model
// refuse to exchange replica results instead of silently misreading them.
const SampleSchemaVersion = 1

// hexbits carries a float64 across JSON as its IEEE-754 bit pattern in
// hex, the same discipline the solve cache uses: encoding/json rejects NaN
// and ±Inf, but simulator metrics legitimately carry NaN (e.g. per-class
// times of classes nobody joined), and bit patterns round-trip every value
// bit-exactly by construction.
type hexbits float64

func (b hexbits) MarshalJSON() ([]byte, error) {
	return json.Marshal(strconv.FormatUint(math.Float64bits(float64(b)), 16))
}

func (b *hexbits) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return err
	}
	*b = hexbits(math.Float64frombits(u))
	return nil
}

// wireSummary is a stats.Summary's full accumulator state on the wire.
type wireSummary struct {
	N    int     `json:"n"`
	Mean hexbits `json:"mean"`
	M2   hexbits `json:"m2"`
	Min  hexbits `json:"min"`
	Max  hexbits `json:"max"`
}

// wireSample is the serialized form of one Sample. encoding/json writes
// map keys sorted, so the encoding is canonical: equal samples encode to
// equal bytes.
type wireSample struct {
	Schema    int                    `json:"schema"`
	Values    map[string]hexbits     `json:"values,omitempty"`
	Counts    map[string]hexbits     `json:"counts,omitempty"`
	Summaries map[string]wireSummary `json:"summaries,omitempty"`
}

// EncodeSample renders a Sample as its canonical, schema-versioned JSON
// payload — the bytes the sample store persists and the fabric wire
// carries for sim-replica cells. Decoding the result with DecodeSample
// reproduces the sample bit-exactly, including NaN metrics and the full
// Welford state of every within-run summary.
func EncodeSample(s Sample) ([]byte, error) {
	w := wireSample{Schema: SampleSchemaVersion}
	if len(s.Values) > 0 {
		w.Values = make(map[string]hexbits, len(s.Values))
		for k, v := range s.Values {
			w.Values[k] = hexbits(v)
		}
	}
	if len(s.Counts) > 0 {
		w.Counts = make(map[string]hexbits, len(s.Counts))
		for k, v := range s.Counts {
			w.Counts[k] = hexbits(v)
		}
	}
	if len(s.Summaries) > 0 {
		w.Summaries = make(map[string]wireSummary, len(s.Summaries))
		for k, sum := range s.Summaries {
			n, mean, m2, min, max := sum.State()
			w.Summaries[k] = wireSummary{
				N: n, Mean: hexbits(mean), M2: hexbits(m2),
				Min: hexbits(min), Max: hexbits(max),
			}
		}
	}
	data, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("replica: sample: %w", err)
	}
	return data, nil
}

// DecodeSample parses an encoded sample, rejecting undecodable payloads
// and any schema version other than SampleSchemaVersion.
func DecodeSample(data []byte) (Sample, error) {
	var w wireSample
	if err := json.Unmarshal(data, &w); err != nil {
		return Sample{}, fmt.Errorf("replica: sample: %w", err)
	}
	if w.Schema != SampleSchemaVersion {
		return Sample{}, fmt.Errorf("replica: sample schema %d, this build speaks %d",
			w.Schema, SampleSchemaVersion)
	}
	var s Sample
	if len(w.Values) > 0 {
		s.Values = make(map[string]float64, len(w.Values))
		for k, v := range w.Values {
			s.Values[k] = float64(v)
		}
	}
	if len(w.Counts) > 0 {
		s.Counts = make(map[string]float64, len(w.Counts))
		for k, v := range w.Counts {
			s.Counts[k] = float64(v)
		}
	}
	if len(w.Summaries) > 0 {
		s.Summaries = make(map[string]stats.Summary, len(w.Summaries))
		for k, sum := range w.Summaries {
			s.Summaries[k] = stats.SummaryFromState(
				sum.N, float64(sum.Mean), float64(sum.M2), float64(sum.Min), float64(sum.Max))
		}
	}
	return s, nil
}

// SeedOf returns the seed of replica rep of cell under base — the one seed
// rule, documented in the package comment. It is computed for the one
// index alone, so any executor can seed any single replica without
// enumerating the others: a fabric worker handed one (cell, replica) pair,
// and a stopping round that starts a cell at its first new replica.
func SeedOf(base uint64, cell, rep int) uint64 {
	if cell < 0 || rep < 0 {
		panic(fmt.Sprintf("replica: SeedOf(cell=%d, rep=%d)", cell, rep))
	}
	if rep == 0 {
		return base
	}
	parent := rng.New(base)
	var src *rng.Source
	for i := 0; i <= cell; i++ {
		src = parent.Split()
	}
	var seed uint64
	for j := 1; j <= rep; j++ {
		seed = src.Uint64()
	}
	return seed
}
