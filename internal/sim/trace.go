package sim

import (
	"fmt"
	"io"
)

// RecordingTracer stores every executed event; useful in tests that
// assert ordering, and for offline latency attribution. When Max is
// set and reached, further events are counted as dropped instead of
// silently vanishing — callers should check Dropped before treating
// the record slice as complete.
type RecordingTracer struct {
	Records []TraceRecord
	Max     int // 0 = unlimited

	dropped int
}

// TraceRecord is a single executed event.
type TraceRecord struct {
	At   Time
	Name string
}

// Event implements Tracer.
func (t *RecordingTracer) Event(at Time, name string) {
	if t.Max > 0 && len(t.Records) >= t.Max {
		t.dropped++
		return
	}
	t.Records = append(t.Records, TraceRecord{at, name})
}

// Dropped reports how many events were discarded because the Max cap
// was reached. A non-zero value means Records is an incomplete trace.
func (t *RecordingTracer) Dropped() int { return t.dropped }

// WriterTracer streams events to an io.Writer as they execute.
type WriterTracer struct{ W io.Writer }

// Event implements Tracer.
func (t WriterTracer) Event(at Time, name string) {
	fmt.Fprintf(t.W, "%12.3fus  %s\n", at.Microseconds(), name)
}

// SpanSink receives begin/end notifications for layer-attributed
// spans. Unlike Tracer, which sees every scheduled event by name, a
// SpanSink sees intervals: model code brackets meaningful work
// (a syscall, an ISR, a DMA engine run) with BeginSpan/End so a
// breakdown falls out of a fold over spans rather than string parsing.
//
// SpanBegin returns an opaque id that the matching SpanEnd presents.
// Implementations must tolerate SpanEnd for unknown ids (a sink
// installed mid-interval sees unmatched ends).
type SpanSink interface {
	SpanBegin(at Time, layer, name string, attrs ...string) uint64
	SpanEnd(at Time, id uint64)
}

// SetSpanSink installs ss as the span sink (nil disables span
// tracing). Span emission is a pure recording hook: it never schedules
// events and cannot perturb simulation timing.
func (s *Sim) SetSpanSink(ss SpanSink) { s.spans = ss }

// TracingSpans reports whether a span sink is installed; call sites
// that would allocate to build span attributes should check it first.
func (s *Sim) TracingSpans() bool { return s.spans != nil }

// FlightSink is the always-on sibling of SpanSink: a bounded,
// allocation-free recorder of recent spans (a flight recorder).
// Unlike SpanSink — whose installation flips TracingSpans() and lets
// hot paths take allocating verbose branches — a FlightSink stays
// installed for a session's whole life, so every method MUST be
// allocation-free in steady state. BeginSpan/End feed both sinks;
// FlightClosed additionally receives the closed spans (wire TLPs,
// MSI-X messages) the fast paths log without composing strings — in
// place of, never in addition to, their verbose spans.
type FlightSink interface {
	FlightBegin(at Time, layer, name string) uint64
	FlightEnd(at Time, id uint64)
	// FlightClosed records an already-closed span. dir is an optional
	// direction qualifier ("down"/"up" for wire spans), "" otherwise.
	FlightClosed(at Time, layer, dir, name string, start, end Time)
}

// SetFlightSink installs fs as the flight sink (nil disables flight
// recording). Like span emission, flight recording is a pure hook: it
// never schedules events and cannot perturb simulation timing.
func (s *Sim) SetFlightSink(fs FlightSink) { s.flight = fs }

// FlightRecording reports whether a flight sink is installed.
func (s *Sim) FlightRecording() bool { return s.flight != nil }

// FlightClosed forwards an already-closed span to the flight sink, if
// one is installed. Hot paths that know a span's endpoints up front
// (the wire layer prices queue+serialization+flight when the TLP is
// queued) use it to feed the flight recorder without the allocating
// name composition the verbose span path performs.
func (s *Sim) FlightClosed(layer, dir, name string, start, end Time) {
	if s.flight != nil {
		s.flight.FlightClosed(s.now, layer, dir, name, start, end)
	}
}

// SpanRef is a handle to an in-flight span. The zero value (returned
// when no sink is installed) is valid and End on it is a no-op.
type SpanRef struct {
	s   *Sim
	id  uint64
	fid uint64
}

// BeginSpan opens a span at the current simulation time. attrs are
// alternating key/value pairs. The span is emitted to the span sink
// and the flight sink independently; either may be absent.
func (s *Sim) BeginSpan(layer, name string, attrs ...string) SpanRef {
	var r SpanRef
	if s.spans != nil {
		r.s = s
		r.id = s.spans.SpanBegin(s.now, layer, name, attrs...)
	}
	if s.flight != nil {
		r.s = s
		r.fid = s.flight.FlightBegin(s.now, layer, name)
	}
	return r
}

// End closes the span at the current simulation time. Safe to call on
// the zero SpanRef or after the sink was removed.
func (r SpanRef) End() {
	if r.s == nil {
		return
	}
	if r.s.spans != nil && r.id != 0 {
		r.s.spans.SpanEnd(r.s.now, r.id)
	}
	if r.s.flight != nil && r.fid != 0 {
		r.s.flight.FlightEnd(r.s.now, r.fid)
	}
}
