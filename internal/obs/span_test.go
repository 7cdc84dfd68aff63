package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceWriterChromeFormat(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	r := New()
	r.SetSpanSink(tw)

	sp := r.StartSpan("cell", L("cell", "p=0.5"))
	if sp.sink == nil {
		t.Fatal("span inactive with sink attached")
	}
	sp.End()
	r.StartSpan("reduce").End()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// The whole stream is one JSON array of complete events.
	var events []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v\n%s", err, sb.String())
	}
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Name != "cell" || events[0].Ph != "X" || events[0].Args["cell"] != "p=0.5" {
		t.Fatalf("first event: %+v", events[0])
	}
	if events[1].Name != "reduce" || events[1].TS < events[0].TS {
		t.Fatalf("second event: %+v", events[1])
	}
	// One event per line between the brackets (JSONL-ish framing).
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "[" || lines[len(lines)-1] != "]" || len(lines) != 4 {
		t.Fatalf("framing:\n%s", sb.String())
	}
}

func TestTraceWriterEmptyClose(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil || len(events) != 0 {
		t.Fatalf("empty trace: %q, %v", sb.String(), err)
	}
	// Spans after Close are dropped, not written.
	tw.RecordSpan(SpanEvent{Name: "late", Start: time.Now()})
	if strings.Contains(sb.String(), "late") {
		t.Fatal("span recorded after Close")
	}
}

func TestTraceWriterConcurrent(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	r := New()
	r.SetSpanSink(tw)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.StartSpan("work").End()
			}
		}()
	}
	wg.Wait()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &events); err != nil {
		t.Fatalf("concurrent trace corrupt: %v", err)
	}
	if len(events) != 8*50 {
		t.Fatalf("events = %d, want %d", len(events), 8*50)
	}
}

func TestSetSpanSinkDetach(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	r := New()
	r.SetSpanSink(tw)
	r.SetSpanSink(nil)
	if r.StartSpan("x").sink != nil {
		t.Fatal("span active after sink detached")
	}
}
