package obs

import (
	"bytes"
	"testing"
)

// FuzzDecodeSnapshot feeds hostile bytes to DecodeSnapshot, which the
// coordinator runs on every telemetry push. Whatever arrives: no panic;
// and a snapshot that decodes re-encodes, and decoding that encoding and
// encoding it again gives the same bytes, so a relayed snapshot is a fixed
// point. The last seed, a series with a repeated label key, panicked the
// decoder before validate refused it.
func FuzzDecodeSnapshot(f *testing.F) {
	r := workerRegistry(3, 0.005, 0.05, 0.5, 7)
	r.Gauge("awkward", L("cell", `p="0.5" rho\1`), L("b", "")).Set(0.1 + 0.2)
	b, err := EncodeSnapshot(r.Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		b,
		[]byte(`{"schema":1}`),
		[]byte(`{"schema":1,"families":[{"name":"g","kind":"gauge","series":[{"value":"NaN"},{"labels":[{"k":"a","v":"x"}],"value":"-Inf"}]}]}`),
		[]byte(`{"schema":1,"families":[{"name":"h","kind":"histogram","bounds":["1","+Inf"],"series":[{"buckets":[1,2,3],"sum":{"":"0x1p-3","w1":"1e308"}}]}]}`),
		[]byte(`{"schema":2}`),
		[]byte(`{"schema":1,"families":[{"name":"g","kind":"gauge","series":[{"labels":[{"k":"a","v":""},{"k":"a","v":"x"}],"value":"1"}]}]}`),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		first, err := EncodeSnapshot(s)
		if err != nil {
			t.Fatalf("a decoded snapshot does not encode: %v", err)
		}
		again, err := DecodeSnapshot(first)
		if err != nil {
			t.Fatalf("the encoding of a decoded snapshot does not decode: %v\n%s", err, first)
		}
		second, err := EncodeSnapshot(again)
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("decode → encode is not a fixed point (%v):\n%s\n%s", err, first, second)
		}
	})
}
