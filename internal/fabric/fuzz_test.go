package fabric

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"mfdl/internal/fabric/chaos"
	"mfdl/internal/obs"
	"mfdl/internal/runner/diskcache"
)

// FuzzCompleteBody throws arbitrary bytes at POST /v1/complete, whose body
// is now a sequence of Entry envelopes. Whatever arrives: no panic; memory
// allocated stays proportional to the body; the answer is 200, 400 or 409;
// every well-formed entry ahead of the first bad one is committed (first
// occurrence of a cell wins, repeats are duplicates) and nothing behind it
// is; and 200 is answered only when no entry was bad — so an entry is never
// dropped without the worker being told. The seeds are healthy bodies and
// what the chaos transport's mutator makes of them.
func FuzzCompleteBody(f *testing.F) {
	spec := schedSpec(f)
	fp := spec.Fingerprint()
	entry := func(key string, schema, cell int, payload string) []byte {
		body, err := diskcache.Entry{Schema: schema, Key: key, Cell: cell, Payload: []byte(payload)}.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return body
	}
	good := func(cell int) []byte {
		return entry(fp, diskcache.CheckpointSchemaVersion, cell, "payload-of-cell")
	}
	batch := bytes.Join([][]byte{good(0), good(1), good(2)}, []byte("\n"))
	for _, seed := range [][]byte{
		good(0),
		batch,
		bytes.Join([][]byte{good(0), good(1), good(2)}, nil), // back to back, no separator
		bytes.Join([][]byte{good(1), good(1)}, []byte("\n")), // a repeat inside one body
		chaos.Corrupt(good(0)),
		chaos.Corrupt(batch),
		append(append([]byte{}, good(0)...), chaos.Corrupt(good(1))...), // a good entry, then a garbled one
		append(append([]byte{}, good(0)...), batch[:len(batch)-7]...),   // a truncated tail
		chaos.Corrupt(nil),
		nil,
		[]byte(" \n\t"),
		entry("another job", diskcache.CheckpointSchemaVersion, 0, "x"),
		entry(fp, diskcache.CheckpointSchemaVersion+1, 0, "x"),
		entry(fp, diskcache.CheckpointSchemaVersion, 3, "x"),
		entry(fp, diskcache.CheckpointSchemaVersion, -1, "x"),
		[]byte(`{"schema":1,"key":"` + fp + `","cell":0}`), // no payload
		[]byte(`[[[[[[[[[[[[[[[[`),
		[]byte(`null`),
	} {
		f.Add(seed)
	}

	store, err := diskcache.OpenCheckpoint(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := store.Clear(fp); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		coord, err := NewCoordinator(spec, store, CoordinatorOptions{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		h := coord.Handler()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, pathComplete, bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(body)+1<<20); grew > limit {
			t.Fatalf("a %d-byte body made the handler allocate %d bytes (limit %d)", len(body), grew, limit)
		}

		// Reference reading of the body: entries in order up to the first
		// one the protocol must refuse.
		first := map[int][]byte{}
		repeats, bad := 0, false
		dec := json.NewDecoder(bytes.NewReader(body))
		for n := 0; ; n++ {
			var e diskcache.Entry
			if err := dec.Decode(&e); err == io.EOF && n > 0 {
				break
			} else if err != nil || e.Payload == nil || e.Schema != diskcache.CheckpointSchemaVersion ||
				e.Key != fp || e.Cell < 0 || e.Cell >= 3 {
				bad = true
				break
			}
			if _, seen := first[e.Cell]; seen {
				repeats++
			} else {
				first[e.Cell] = e.Payload
			}
		}

		switch {
		case !bad && rec.Code != http.StatusOK:
			t.Fatalf("a well-formed body was answered %d %s", rec.Code, rec.Body)
		case bad && rec.Code != http.StatusBadRequest && rec.Code != http.StatusConflict:
			t.Fatalf("a body with a bad entry was answered %d %s", rec.Code, rec.Body)
		}
		for cell := 0; cell < 3; cell++ {
			stored, ok := store.Get(fp, cell)
			want, committed := first[cell]
			if ok != committed || !bytes.Equal(stored, want) {
				t.Fatalf("cell %d: stored %q (%v), want %q (%v)", cell, stored, ok, want, committed)
			}
		}
		if st := coord.Status(); st.Done != len(first) {
			t.Fatalf("%d cells done, want %d", st.Done, len(first))
		}
		if n := reg.Counter("fabric_cells_completed_total").Value(); n != uint64(len(first)) {
			t.Fatalf("completed counter = %d, want %d", n, len(first))
		}
		if n := reg.Counter("fabric_cells_duplicate_total").Value(); n != uint64(repeats) {
			t.Fatalf("duplicate counter = %d, want %d", n, repeats)
		}
	})
}
