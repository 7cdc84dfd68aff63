// Package bencode implements the bencoding format of BEP-3, the wire
// encoding of BitTorrent metadata and tracker responses. It is the first
// layer of the server–torrent architecture of the paper's Section 3.1: the
// .torrent files the web server indexes and the responses the tracker
// serves are both bencoded.
//
// The data model is the canonical one:
//
//	string  -> Go string (binary-safe)
//	integer -> int64
//	list    -> []any
//	dict    -> map[string]any (encoded with sorted keys, as the spec and
//	           info-hash stability require)
//
// Decoding is strict: leading zeros, negative zero, unsorted or duplicate
// dictionary keys, and trailing garbage are rejected, because the SHA-1
// info-hash of a torrent is defined over the exact canonical encoding.
package bencode

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Marshal encodes v (string, int/int64, []any, or map[string]any,
// recursively) into canonical bencoding.
func Marshal(v any) ([]byte, error) {
	var b strings.Builder
	if err := encode(&b, v); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

func encode(b *strings.Builder, v any) error {
	switch x := v.(type) {
	case string:
		b.WriteString(strconv.Itoa(len(x)))
		b.WriteByte(':')
		b.WriteString(x)
	case []byte:
		return encode(b, string(x))
	case int:
		return encode(b, int64(x))
	case int64:
		b.WriteByte('i')
		b.WriteString(strconv.FormatInt(x, 10))
		b.WriteByte('e')
	case []any:
		b.WriteByte('l')
		for _, e := range x {
			if err := encode(b, e); err != nil {
				return err
			}
		}
		b.WriteByte('e')
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteByte('d')
		for _, k := range keys {
			if err := encode(b, k); err != nil {
				return err
			}
			if err := encode(b, x[k]); err != nil {
				return err
			}
		}
		b.WriteByte('e')
	default:
		return fmt.Errorf("bencode: unsupported type %T", v)
	}
	return nil
}

// Unmarshal decodes one complete bencoded value; trailing bytes are an
// error.
func Unmarshal(data []byte) (any, error) {
	d := decoder{data: data}
	v, err := d.value()
	if err != nil {
		return nil, err
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("bencode: %d trailing bytes", len(d.data)-d.pos)
	}
	return v, nil
}

type decoder struct {
	data []byte
	pos  int
}

var errTruncated = errors.New("bencode: truncated input")

func (d *decoder) peek() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, errTruncated
	}
	return d.data[d.pos], nil
}

func (d *decoder) value() (any, error) {
	c, err := d.peek()
	if err != nil {
		return nil, err
	}
	switch {
	case c == 'i':
		return d.integer()
	case c == 'l':
		return d.list()
	case c == 'd':
		return d.dict()
	case c >= '0' && c <= '9':
		return d.str()
	default:
		return nil, fmt.Errorf("bencode: unexpected byte %q at offset %d", c, d.pos)
	}
}

func (d *decoder) integer() (int64, error) {
	d.pos++ // 'i'
	end := d.pos
	for end < len(d.data) && d.data[end] != 'e' {
		end++
	}
	if end >= len(d.data) {
		return 0, errTruncated
	}
	s := string(d.data[d.pos:end])
	if s == "-0" {
		return 0, errors.New("bencode: negative zero")
	}
	digits := s
	if strings.HasPrefix(s, "-") {
		digits = s[1:]
	}
	if digits == "" || digits[0] < '0' || digits[0] > '9' { // ParseInt would take a "+"
		return 0, fmt.Errorf("bencode: bad integer %q", s)
	}
	if len(digits) > 1 && digits[0] == '0' {
		return 0, fmt.Errorf("bencode: leading zero in integer %q", s)
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bencode: bad integer %q", s)
	}
	d.pos = end + 1
	return n, nil
}

func (d *decoder) str() (string, error) {
	colon := d.pos
	for colon < len(d.data) && d.data[colon] != ':' {
		colon++
	}
	if colon >= len(d.data) {
		return "", errTruncated
	}
	lenStr := string(d.data[d.pos:colon])
	if len(lenStr) > 1 && lenStr[0] == '0' {
		return "", fmt.Errorf("bencode: leading zero in length %q", lenStr)
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 {
		return "", fmt.Errorf("bencode: bad string length %q", lenStr)
	}
	start := colon + 1
	if start+n > len(d.data) {
		return "", errTruncated
	}
	d.pos = start + n
	return string(d.data[start : start+n]), nil
}

func (d *decoder) list() ([]any, error) {
	d.pos++ // 'l'
	out := []any{}
	for {
		c, err := d.peek()
		if err != nil {
			return nil, err
		}
		if c == 'e' {
			d.pos++
			return out, nil
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
}

func (d *decoder) dict() (map[string]any, error) {
	d.pos++ // 'd'
	out := map[string]any{}
	prevKey := ""
	first := true
	for {
		c, err := d.peek()
		if err != nil {
			return nil, err
		}
		if c == 'e' {
			d.pos++
			return out, nil
		}
		key, err := d.str()
		if err != nil {
			return nil, fmt.Errorf("bencode: dict key: %w", err)
		}
		if !first && key <= prevKey {
			return nil, fmt.Errorf("bencode: dict keys not strictly sorted (%q after %q)", key, prevKey)
		}
		first = false
		prevKey = key
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		out[key] = v
	}
}
