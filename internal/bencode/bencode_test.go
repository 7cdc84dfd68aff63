package bencode

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mfdl/internal/rng"
)

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMarshalSpecExamples(t *testing.T) {
	cases := []struct {
		in   any
		want string
	}{
		{"spam", "4:spam"},
		{"", "0:"},
		{int64(3), "i3e"},
		{int64(-3), "i-3e"},
		{int64(0), "i0e"},
		{[]any{"spam", "eggs"}, "l4:spam4:eggse"},
		{map[string]any{"cow": "moo", "spam": "eggs"}, "d3:cow3:moo4:spam4:eggse"},
		{map[string]any{"spam": []any{"a", "b"}}, "d4:spaml1:a1:bee"},
		{[]any{}, "le"},
		{map[string]any{}, "de"},
		{42, "i42e"},          // plain int
		{[]byte{0x61}, "1:a"}, // byte slice
	}
	for i, c := range cases {
		if got := mustMarshal(t, c.in); got != c.want {
			t.Fatalf("case %d: got %q, want %q", i, got, c.want)
		}
	}
}

func TestMarshalSortsKeys(t *testing.T) {
	got := mustMarshal(t, map[string]any{"zz": int64(1), "aa": int64(2), "mm": int64(3)})
	if got != "d2:aai2e2:mmi3e2:zzi1ee" {
		t.Fatalf("unsorted encoding %q", got)
	}
}

func TestMarshalUnsupportedType(t *testing.T) {
	if _, err := Marshal(3.14); err == nil {
		t.Fatal("float accepted")
	}
	if _, err := Marshal([]any{map[string]any{"x": struct{}{}}}); err == nil {
		t.Fatal("nested struct accepted")
	}
}

func TestUnmarshalSpecExamples(t *testing.T) {
	cases := []struct {
		in   string
		want any
	}{
		{"4:spam", "spam"},
		{"i3e", int64(3)},
		{"i-3e", int64(-3)},
		{"l4:spam4:eggse", []any{"spam", "eggs"}},
		{"d3:cow3:moo4:spam4:eggse", map[string]any{"cow": "moo", "spam": "eggs"}},
		{"le", []any{}},
		{"de", map[string]any{}},
	}
	for i, c := range cases {
		got, err := Unmarshal([]byte(c.in))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("case %d: got %#v, want %#v", i, got, c.want)
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                        // empty
		"i3",                      // unterminated integer
		"ie",                      // empty integer
		"i03e",                    // leading zero
		"i-0e",                    // negative zero
		"i+0e",                    // explicit plus sign
		"i3ei4e",                  // trailing garbage
		"5:spam",                  // truncated string
		"01:a",                    // leading zero in length
		"-1:a",                    // negative length
		"l4:spam",                 // unterminated list
		"d3:cow",                  // dict key without value
		"d4:spam3:moo3:cow3:mooe", // unsorted keys
		"d3:cow1:a3:cow1:be",      // duplicate key
		"x",                       // unknown type
		"4spam",                   // missing colon (truncated scan)
	}
	for _, s := range bad {
		if _, err := Unmarshal([]byte(s)); err == nil {
			t.Fatalf("accepted %q", s)
		}
	}
}

func TestBinaryStringsSurvive(t *testing.T) {
	raw := string([]byte{0, 1, 2, 0xff, 'e', ':', 'i'})
	enc := mustMarshal(t, raw)
	got, err := Unmarshal([]byte(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.(string) != raw {
		t.Fatal("binary string corrupted")
	}
}

// randomValue builds a random bencodable value of bounded depth.
func randomValue(src *rng.Source, depth int) any {
	kind := src.Intn(4)
	if depth <= 0 {
		kind = src.Intn(2)
	}
	switch kind {
	case 0:
		n := src.Intn(8)
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(byte(src.Intn(256)))
		}
		return sb.String()
	case 1:
		return int64(src.Intn(1<<20)) - 1<<19
	case 2:
		n := src.Intn(4)
		l := make([]any, n)
		for i := range l {
			l[i] = randomValue(src, depth-1)
		}
		return l
	default:
		n := src.Intn(4)
		m := map[string]any{}
		for i := 0; i < n; i++ {
			m[string(rune('a'+src.Intn(26)))] = randomValue(src, depth-1)
		}
		return m
	}
}

func TestRoundTripProperty(t *testing.T) {
	src := rng.New(11)
	f := func(uint8) bool {
		v := randomValue(src, 3)
		enc, err := Marshal(v)
		if err != nil {
			return false
		}
		dec, err := Unmarshal(enc)
		if err != nil {
			return false
		}
		re, err := Marshal(dec)
		if err != nil {
			return false
		}
		// Marshal∘Unmarshal∘Marshal must be the identity on encodings.
		return string(re) == string(enc) && reflect.DeepEqual(dec, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarshalDict(b *testing.B) {
	v := map[string]any{
		"announce": "http://tracker.example/announce",
		"info": map[string]any{
			"name": "season", "piece length": int64(262144),
			"pieces": strings.Repeat("x", 20*64),
			"files": []any{
				map[string]any{"length": int64(1 << 20), "path": []any{"e01.mkv"}},
				map[string]any{"length": int64(1 << 20), "path": []any{"e02.mkv"}},
			},
		},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(v); err != nil {
			b.Fatal(err)
		}
	}
}
