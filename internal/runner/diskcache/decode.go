package diskcache

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"mfdl/internal/metrics"
)

// decodeSolve parses a solve entry. It accepts exactly the canonical bytes
// Store.Put writes — encoding/json's rendering of entry, no whitespace,
// keys in struct order, floats as the shortest lower-case hex of their bit
// pattern — and nothing else that JSON would also allow: only Put writes
// these files, and anything unrecognised is evicted and recomputed. The key
// is returned as bytes (a sub-slice of data unless it carried an escape) so
// the caller can compare the echo without allocating.
func decodeSolve(data []byte) (schema int, key []byte, res *metrics.SchemeResult, ok bool) {
	const class = `{"class":`
	s := scanner{rest: data}
	s.lit(`{"schema":`)
	schema = s.int()
	s.lit(`,"key":`)
	key = s.str()
	s.lit(`,"result":{"scheme":`)
	name := s.str()
	s.lit(`,"classes":[`)
	// What is left is the classes, so the count sizes the slice exactly.
	res = &metrics.SchemeResult{Classes: make([]metrics.PerClass, 0, bytes.Count(s.rest, []byte(class)))}
	for !s.bad && !s.has("]") {
		if len(res.Classes) > 0 {
			s.lit(",")
		}
		var c metrics.PerClass
		s.lit(class)
		c.Class = s.int()
		s.lit(`,"lambda":`)
		c.EntryRate = s.float()
		s.lit(`,"download":`)
		c.DownloadTime = s.float()
		s.lit(`,"online":`)
		c.OnlineTime = s.float()
		s.lit("}")
		res.Classes = append(res.Classes, c)
	}
	s.lit("]}}")
	if s.bad || len(s.rest) != 0 {
		return 0, nil, nil, false
	}
	res.Scheme = string(name)
	return schema, key, res, true
}

// scanner consumes a byte slice left to right. The first token that does
// not match sets bad, after which every call is a no-op returning zero, so
// a decoder reads as the straight-line grammar and checks once at the end.
type scanner struct {
	rest []byte
	bad  bool
}

func (s *scanner) has(prefix string) bool {
	return len(s.rest) >= len(prefix) && string(s.rest[:len(prefix)]) == prefix
}

func (s *scanner) lit(text string) {
	if s.bad || !s.has(text) {
		s.bad = true
		return
	}
	s.rest = s.rest[len(text):]
}

// int reads a decimal integer spelled the way strconv.Itoa spells it.
func (s *scanner) int() int {
	n := 0
	for n < len(s.rest) && (s.rest[n] == '-' || s.rest[n]-'0' <= 9) {
		n++
	}
	v, err := strconv.Atoi(string(s.rest[:n]))
	if s.bad || err != nil || strconv.Itoa(v) != string(s.rest[:n]) {
		s.bad = true
		return 0
	}
	s.rest = s.rest[n:]
	return v
}

// str reads a JSON string and returns its contents. A string without
// escapes is returned in place; one with a backslash goes through
// encoding/json, which is the definition of what the escapes mean. Raw
// control bytes and invalid UTF-8 are refused, as json.Marshal never
// emits them.
func (s *scanner) str() []byte {
	if s.bad || !s.has(`"`) {
		s.bad = true
		return nil
	}
	escaped := false
	for i := 1; i < len(s.rest); i++ {
		switch c := s.rest[i]; {
		case c == '"':
			tok := s.rest[:i+1]
			s.rest = s.rest[i+1:]
			if escaped {
				var v string
				s.bad = json.Unmarshal(tok, &v) != nil
				return []byte(v)
			}
			s.bad = !utf8.Valid(tok)
			return tok[1:i]
		case c == '\\':
			escaped = true
			i++ // whatever follows, a quote included, belongs to the string
		case c < 0x20:
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// float reads a quoted bit pattern as strconv.FormatUint(bits, 16) renders
// it: one to sixteen lower-case hex digits, no leading zero but "0" itself.
func (s *scanner) float() float64 {
	s.lit(`"`)
	if s.bad {
		return 0
	}
	var u uint64
	n := 0
	for ; n < len(s.rest) && n < 16; n++ {
		v := nibble(s.rest[n])
		if v == 16 {
			break
		}
		u = u<<4 | v
	}
	if n == 0 || (n > 1 && s.rest[0] == '0') {
		s.bad = true
		return 0
	}
	s.rest = s.rest[n:]
	s.lit(`"`)
	return math.Float64frombits(u)
}

// nibble is the value of a lower-case hex digit, 16 for any other byte.
func nibble(c byte) uint64 {
	switch {
	case c-'0' <= 9:
		return uint64(c - '0')
	case c-'a' <= 5:
		return uint64(c-'a') + 10
	}
	return 16
}
