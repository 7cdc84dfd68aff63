package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// SpanEvent is one completed phase span as delivered to a SpanSink.
type SpanEvent struct {
	// Name is the phase name, e.g. "cell" or "simulate".
	Name string
	// Start and Duration bound the span in wall-clock time.
	Start    time.Time
	Duration time.Duration
	// Labels carry the span's dimensions (cell index, replica, ...).
	Labels []Label
	// PID is the process the span was recorded in — stamped by
	// SetSpanIdentity, preserved verbatim by EmitSpan — so spans shipped
	// across processes keep their origin when a fleet trace is assembled.
	// Zero means "this process" and renders as pid 1.
	PID int
}

// spanIdentity is the per-registry process identity stamped onto every
// span: the pid plus extra labels (e.g. worker=<id>).
type spanIdentity struct {
	pid    int
	labels []Label
}

// SetSpanIdentity configures the process identity injected into every
// span subsequently started on this registry: the pid lands in
// SpanEvent.PID and the labels are appended to each span's own labels.
// Fleet workers call it with their worker id so a coordinator can
// assemble one cross-process trace. Nil-safe.
func (r *Registry) SetSpanIdentity(pid int, labels ...Label) {
	if r == nil {
		return
	}
	r.ident.Store(&spanIdentity{pid: pid, labels: append([]Label(nil), labels...)})
}

// SpanSink receives completed spans. Implementations must be safe for
// concurrent use; the registry delivers spans from whichever goroutine
// ends them.
type SpanSink interface {
	RecordSpan(SpanEvent)
}

// SetSpanSink attaches (or, with nil, detaches) the span sink. Nil-safe.
func (r *Registry) SetSpanSink(s SpanSink) {
	if r == nil {
		return
	}
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{s: s})
}

// spanSink returns the current sink, or nil.
func (r *Registry) spanSink() SpanSink {
	if r == nil {
		return nil
	}
	if b := r.sink.Load(); b != nil {
		return b.s
	}
	return nil
}

// Tracing reports whether a span sink is attached — hot paths use it to
// skip building span labels when no one is listening. Nil-safe.
func (r *Registry) Tracing() bool { return r.spanSink() != nil }

// SpanSink returns the currently attached sink, or nil — callers use it
// to compose an extra sink onto whatever is already wired:
// r.SetSpanSink(Tee(r.SpanSink(), extra)). Nil-safe.
func (r *Registry) SpanSink() SpanSink { return r.spanSink() }

// Span is one in-flight phase: started by Registry.StartSpan, finished
// by End. The zero Span (and any span started on a registry without a
// sink) is inert — End is a no-op and no clock is read — so span
// instrumentation costs nothing when tracing is off.
type Span struct {
	sink   SpanSink
	name   string
	labels []Label
	start  time.Time
	pid    int
}

// StartSpan opens a span. When the registry is nil or has no sink the
// returned span is inert and no time is read. If a span identity is
// configured (SetSpanIdentity) its labels are appended and its pid
// stamped onto the completed event.
func (r *Registry) StartSpan(name string, labels ...Label) Span {
	sink := r.spanSink()
	if sink == nil {
		return Span{}
	}
	sp := Span{sink: sink, name: name, labels: labels, start: time.Now()}
	if id := r.ident.Load(); id != nil {
		sp.pid = id.pid
		if len(id.labels) > 0 {
			sp.labels = append(append([]Label(nil), labels...), id.labels...)
		}
	}
	return sp
}

// End completes the span and delivers it to the sink. No-op on an inert
// span.
func (s Span) End() {
	if s.sink == nil {
		return
	}
	s.sink.RecordSpan(SpanEvent{
		Name: s.name, Start: s.start, Duration: time.Since(s.start),
		Labels: s.labels, PID: s.pid,
	})
}

// EmitSpan delivers an already-completed span event to the registry's
// sink, preserving the event verbatim (no identity stamping) — the
// ingestion path for spans shipped from another process. No-op when the
// registry is nil or has no sink.
func (r *Registry) EmitSpan(e SpanEvent) {
	if sink := r.spanSink(); sink != nil {
		sink.RecordSpan(e)
	}
}

// TraceWriter is a SpanSink that streams spans as Chrome trace events:
// a JSON array of complete ("ph":"X") events, one event per line, so
// the output is both line-parsable (strip the trailing comma) and loads
// directly into chrome://tracing / https://ui.perfetto.dev. Timestamps
// are microseconds relative to the first recorded span. Close finishes
// the array; Chrome also accepts an unterminated file from a crashed
// process.
type TraceWriter struct {
	mu     sync.Mutex
	w      io.Writer
	base   time.Time
	opened bool
	closed bool
	err    error
}

// NewTraceWriter returns a trace sink writing to w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w}
}

// RecordSpan implements SpanSink.
func (t *TraceWriter) RecordSpan(e SpanEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	if !t.opened {
		t.opened = true
		t.base = e.Start
		if _, err := io.WriteString(t.w, "[\n"); err != nil {
			t.err = err
			return
		}
	} else if _, err := io.WriteString(t.w, ",\n"); err != nil {
		t.err = err
		return
	}
	var args strings.Builder
	for i, l := range e.Labels {
		if i > 0 {
			args.WriteByte(',')
		}
		fmt.Fprintf(&args, `"%s":"%s"`, l.Key, escapeLabelValue(l.Value))
	}
	pid := e.PID
	if pid == 0 {
		pid = 1
	}
	_, err := fmt.Fprintf(t.w,
		`{"name":"%s","ph":"X","pid":%d,"tid":1,"ts":%d,"dur":%d,"args":{%s}}`,
		escapeLabelValue(e.Name), pid, e.Start.Sub(t.base).Microseconds(),
		e.Duration.Microseconds(), args.String())
	if err != nil {
		t.err = err
	}
}

// Tee fans one span out to several sinks; nil sinks are skipped. A
// worker uses it to both write its local trace and buffer spans for the
// telemetry envelope.
func Tee(sinks ...SpanSink) SpanSink {
	out := make(teeSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}

type teeSink []SpanSink

func (t teeSink) RecordSpan(e SpanEvent) {
	for _, s := range t {
		s.RecordSpan(e)
	}
}

// SpanCollector is a SpanSink that buffers completed spans until they
// are drained — the staging area between a worker's span stream and its
// periodic telemetry pushes. The buffer is bounded: beyond the limit new
// spans are discarded rather than grown without bound, so a worker that
// outpaces its heartbeat loses trace detail, never memory.
type SpanCollector struct {
	mu    sync.Mutex
	limit int
	buf   []SpanEvent
}

// NewSpanCollector returns a collector holding at most limit undrained
// spans (limit <= 0 means the default of 4096).
func NewSpanCollector(limit int) *SpanCollector {
	if limit <= 0 {
		limit = 4096
	}
	return &SpanCollector{limit: limit}
}

// RecordSpan implements SpanSink.
func (c *SpanCollector) RecordSpan(e SpanEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.buf) >= c.limit {
		return
	}
	c.buf = append(c.buf, e)
}

// Drain returns the buffered spans and resets the buffer.
func (c *SpanCollector) Drain() []SpanEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.buf
	c.buf = nil
	return out
}

// Close terminates the JSON array. Safe to call once; further spans are
// dropped. Returns the first write error encountered, if any.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	if !t.opened {
		if _, err := io.WriteString(t.w, "[\n"); err != nil {
			t.err = err
			return t.err
		}
	}
	if _, err := io.WriteString(t.w, "\n]\n"); err != nil {
		t.err = err
	}
	return t.err
}
