package diskcache

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"mfdl/internal/metrics"
)

// The reference the strict decoder is held to: encoding/json into the wire
// structs, which is how Store.Get read entries before decodeSolve.

func (b *bits) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	u, err := strconv.ParseUint(s, 16, 64)
	*b = bits(math.Float64frombits(u))
	return err
}

func (w *wireResult) result() *metrics.SchemeResult {
	r := &metrics.SchemeResult{Scheme: w.Scheme, Classes: make([]metrics.PerClass, len(w.Classes))}
	for i, c := range w.Classes {
		r.Classes[i] = metrics.PerClass{
			Class:     c.Class,
			EntryRate: float64(c.EntryRate), DownloadTime: float64(c.DownloadTime), OnlineTime: float64(c.OnlineTime),
		}
	}
	return r
}

func referenceDecode(data []byte) (schema int, key string, res *metrics.SchemeResult, ok bool) {
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Result == nil {
		return 0, "", nil, false
	}
	return e.Schema, e.Key, e.Result.result(), true
}

// putBytes returns the file Store.Put writes for (key, res).
func putBytes(t testing.TB, key string, res *metrics.SchemeResult) []byte {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sameResult reports whether two results are equal bit for bit (NaN
// payloads and the sign of zero included).
func sameResult(a, b *metrics.SchemeResult) bool {
	if a.Scheme != b.Scheme || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i, x := range a.Classes {
		y := b.Classes[i]
		if x.Class != y.Class ||
			math.Float64bits(x.EntryRate) != math.Float64bits(y.EntryRate) ||
			math.Float64bits(x.DownloadTime) != math.Float64bits(y.DownloadTime) ||
			math.Float64bits(x.OnlineTime) != math.Float64bits(y.OnlineTime) {
			return false
		}
	}
	return true
}

// mustAgree decodes data both ways: whatever decodeSolve accepts, the
// reference must accept and read identically.
func mustAgree(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	schema, key, res, ok := decodeSolve(data)
	if !ok {
		return false
	}
	rSchema, rKey, rRes, rOK := referenceDecode(data)
	if !rOK {
		t.Fatalf("decodeSolve accepts what encoding/json refuses: %q", data)
	}
	if schema != rSchema || string(key) != rKey || !sameResult(res, rRes) {
		t.Fatalf("decoders disagree on %q:\n strict    %d %q %+v\n reference %d %q %+v", data, schema, key, res, rSchema, rKey, rRes)
	}
	return true
}

const awkward = "quote\" back\\slash <tag> line\u2028sep tab\t nul\x00 bad\xff\xfeutf8 θ"

type solveSeed struct {
	key string
	res *metrics.SchemeResult
}

func decoderSeeds() map[string]solveSeed {
	forty := &metrics.SchemeResult{Scheme: "CMFSD"}
	for i := 1; i <= 40; i++ {
		forty.Classes = append(forty.Classes, metrics.PerClass{
			Class: i, EntryRate: 1 / float64(i), DownloadTime: float64(i) * 1e-300, OnlineTime: float64(i) * 1e300,
		})
	}
	nan := func(mantissa uint64) float64 { return math.Float64frombits(0x7ff0000000000000 | mantissa) }
	return map[string]solveSeed{
		"sample": {"k", sample()},
		"nonfinite": {"tol=1e-10 scheme=MTCD k=10", &metrics.SchemeResult{Scheme: "MTCD", Classes: []metrics.PerClass{
			{Class: 1, EntryRate: nan(1), DownloadTime: nan(0xdeadbeef), OnlineTime: -nan(1 << 51)},
			{Class: 2, EntryRate: math.Inf(1), DownloadTime: math.Inf(-1), OnlineTime: math.Copysign(0, -1)},
			{Class: -3, EntryRate: math.SmallestNonzeroFloat64, DownloadTime: math.MaxFloat64, OnlineTime: 0},
			{Class: math.MinInt, EntryRate: 1, DownloadTime: 2, OnlineTime: 3},
			{Class: math.MaxInt, EntryRate: 1, DownloadTime: 2, OnlineTime: 3},
		}}},
		"noclasses": {"k", &metrics.SchemeResult{Scheme: "MFCD", Classes: nil}},
		"forty":     {"k", forty},
		"escapes":   {awkward, &metrics.SchemeResult{Scheme: awkward, Classes: sample().Classes}},
		"lookalike": {`{"class":{"class":`, &metrics.SchemeResult{Scheme: `"]}}`, Classes: sample().Classes}},
	}
}

// Every entry Put writes must be accepted, with every bit of the result
// and (for keys JSON can carry) the key intact.
func TestDecodeSolveAcceptsPut(t *testing.T) {
	for name, seed := range decoderSeeds() {
		t.Run(name, func(t *testing.T) {
			data := putBytes(t, seed.key, seed.res)
			if !mustAgree(t, data) {
				t.Fatalf("Put's own bytes refused: %q", data)
			}
			schema, key, res, _ := decodeSolve(data)
			if schema != SchemaVersion {
				t.Errorf("schema %d", schema)
			}
			if utf8.ValidString(seed.key) && (string(key) != seed.key || res.Scheme != seed.res.Scheme) {
				t.Errorf("key %q scheme %q, want %q %q", key, res.Scheme, seed.key, seed.res.Scheme)
			}
			seed.res.Scheme = res.Scheme // json.Marshal replaces invalid UTF-8; the reference comparison above covers it
			if !sameResult(res, seed.res) {
				t.Errorf("result changed:\n got %+v\nwant %+v", res, seed.res)
			}
		})
	}
}

// The bytes Put writes, literally — what decodeSolve's grammar is written
// against. An encoding/json release that renders entry differently fails
// here rather than as a cache that silently never hits.
func TestPutBytesGolden(t *testing.T) {
	res := &metrics.SchemeResult{Scheme: "a<b", Classes: []metrics.PerClass{
		{Class: 1, EntryRate: 0.5, DownloadTime: 50, OnlineTime: math.Inf(1)},
		{Class: 2, EntryRate: 0, DownloadTime: math.NaN(), OnlineTime: math.Copysign(0, -1)},
	}}
	const want = `{"schema":1,"key":"say \"θ\"\u2028","result":{"scheme":"a\u003cb","classes":[` +
		`{"class":1,"lambda":"3fe0000000000000","download":"4049000000000000","online":"7ff0000000000000"},` +
		`{"class":2,"lambda":"0","download":"7ff8000000000001","online":"8000000000000000"}]}}`
	got := putBytes(t, "say \"θ\"\u2028", res)
	if string(got) != want {
		t.Fatalf("Put wrote\n %s\nwant\n %s", got, want)
	}
	if _, key, back, ok := decodeSolve(got); !ok || string(key) != "say \"θ\"\u2028" || !sameResult(back, res) {
		t.Fatalf("golden bytes decode to %q %+v (ok=%v)", key, back, ok)
	}
}

// The solve kit's non-canonical rows must be what they claim: entries the
// reference reads as a valid hit for key "k", refused only for their
// spelling.
func TestNonCanonicalRowsAreValidJSON(t *testing.T) {
	for name, text := range solve.malformed {
		if name == "nullres" {
			continue
		}
		schema, key, res, ok := referenceDecode([]byte(text))
		if !ok || schema != SchemaVersion || key != "k" || res.Validate() != nil {
			t.Errorf("%s: the reference does not read this as a hit (ok=%v schema=%d key=%q)", name, ok, schema, key)
		}
		if _, _, _, ok := decodeSolve([]byte(text)); ok {
			t.Errorf("%s: accepted by the strict decoder", name)
		}
	}
}

func TestDecodeSolveRefuses(t *testing.T) {
	canon := string(putBytes(t, "k", sample()))
	for name, data := range map[string]string{
		"empty":           "",
		"trailing":        canon + "\n",
		"truncated":       canon[:len(canon)-1],
		"raw control":     strings.Replace(canon, `"k"`, "\"k\x01\"", 1),
		"raw bad utf8":    strings.Replace(canon, `"k"`, "\"k\xff\"", 1),
		"bad escape":      strings.Replace(canon, `"k"`, `"k\q"`, 1),
		"open string":     `{"schema":1,"key":"k\`,
		"schema -0":       strings.Replace(canon, `"schema":1`, `"schema":-0`, 1),
		"schema 01":       strings.Replace(canon, `"schema":1`, `"schema":01`, 1),
		"schema overflow": strings.Replace(canon, `"schema":1`, `"schema":9223372036854775808`, 1),
		"schema 20 digit": strings.Replace(canon, `"schema":1`, `"schema":10000000000000000000`, 1),
		"schema float":    strings.Replace(canon, `"schema":1`, `"schema":1.0`, 1),
		"empty hex":       strings.Replace(canon, `"lambda":"0"`, `"lambda":""`, 1),
		"trailing comma":  strings.Replace(canon, `]}}`, `,]}}`, 1),
		"leading comma":   strings.Replace(canon, `[{`, `[,{`, 1),
	} {
		if _, _, _, ok := decodeSolve([]byte(data)); ok {
			t.Errorf("%s: accepted %q", name, data)
		}
	}
}

// FuzzSolveEntry holds decodeSolve to its contract on arbitrary bytes —
// no panic, memory proportional to the input, and acceptance only of what
// the reference reads identically — and, reading the same bytes as the
// description of a result, to accepting whatever Put writes for it.
func FuzzSolveEntry(f *testing.F) {
	for _, seed := range decoderSeeds() {
		f.Add(putBytes(f, seed.key, seed.res))
	}
	for _, text := range solve.malformed {
		f.Add([]byte(text))
	}
	fixture, err := filepath.Glob(filepath.Join("testdata", "parent", "*.json"))
	if err != nil || len(fixture) != 1 {
		f.Fatalf("parent fixture: %v %v", fixture, err)
	}
	data, err := os.ReadFile(fixture[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	store, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		decodeSolve(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+64<<10); grew > limit {
			t.Fatalf("a %d-byte entry made the decoder allocate %d bytes (limit %d)", len(data), grew, limit)
		}
		mustAgree(t, data)

		// The same bytes as a result: a key, a scheme name, then 32-byte
		// classes.
		cut := len(data) / 4
		key, res := string(data[:cut]), &metrics.SchemeResult{Scheme: string(data[cut : 2*cut])}
		for rest := data[2*cut:]; len(rest) >= 32; rest = rest[32:] {
			word := func(i int) uint64 { return binary.LittleEndian.Uint64(rest[8*i:]) }
			res.Classes = append(res.Classes, metrics.PerClass{
				Class:     int(word(0)),
				EntryRate: math.Float64frombits(word(1)), DownloadTime: math.Float64frombits(word(2)), OnlineTime: math.Float64frombits(word(3)),
			})
		}
		if err := store.Put(key, res); err != nil {
			t.Fatal(err)
		}
		written, err := os.ReadFile(store.path(key))
		if err != nil {
			t.Fatal(err)
		}
		if !mustAgree(t, written) {
			t.Fatalf("Put's own bytes refused: %q", written)
		}
		_, _, back, _ := decodeSolve(written)
		res.Scheme = back.Scheme // invalid UTF-8 is replaced on the way out; mustAgree compared it
		if !sameResult(back, res) {
			t.Fatalf("result changed through Put and decode:\n got %+v\nwant %+v", back, res)
		}
	})
}
