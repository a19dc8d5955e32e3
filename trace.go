package fpgavirtio

import (
	"fmt"
	"io"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// TraceEvent is one executed simulation event: a TLP arrival, an engine
// step, an interrupt, a wakeup. AtNanos is the absolute simulated
// timestamp in nanoseconds.
type TraceEvent struct {
	AtNanos int64
	Name    string
}

// SpanEvent is one closed telemetry span: an interval of work
// attributed to a layer of the testbed.
type SpanEvent struct {
	Layer      string
	Name       string
	StartNanos int64
	EndNanos   int64
}

// Trace is the full observability capture of one operation: the flat
// event log plus the layer-attributed spans, with truncation made
// explicit.
type Trace struct {
	Events []TraceEvent
	Spans  []SpanEvent
	// DroppedEvents counts flat events lost to the tracer's cap; a
	// non-zero value means Events is incomplete.
	DroppedEvents int
	// OpenSpans counts spans begun but never closed during the capture.
	OpenSpans int

	spans    []telemetry.Span // picosecond resolution, for Chrome export
	instants []telemetry.Instant
}

// maxTraceEvents caps a capture's flat event log.
const maxTraceEvents = 100000

func convertTrace(records []sim.TraceRecord) []TraceEvent {
	out := make([]TraceEvent, len(records))
	for i, r := range records {
		ns := int64(r.At / sim.Time(sim.Nanosecond))
		out[i] = TraceEvent{AtNanos: ns, Name: r.Name}
	}
	return out
}

func buildTrace(tr *sim.RecordingTracer, rec *telemetry.Recorder) *Trace {
	spans := rec.Spans()
	t := &Trace{
		Events:        convertTrace(tr.Records),
		Spans:         make([]SpanEvent, len(spans)),
		DroppedEvents: tr.Dropped(),
		OpenSpans:     len(rec.OpenSpans()),
		spans:         spans,
		instants:      make([]telemetry.Instant, len(tr.Records)),
	}
	for i, sp := range spans {
		t.Spans[i] = SpanEvent{
			Layer:      sp.Layer,
			Name:       sp.Name,
			StartNanos: int64(sp.Start / sim.Time(sim.Nanosecond)),
			EndNanos:   int64(sp.End / sim.Time(sim.Nanosecond)),
		}
	}
	for i, r := range tr.Records {
		t.instants[i] = telemetry.Instant{Name: r.Name, At: int64(r.At)}
	}
	return t
}

// Layers lists the distinct span layers present in the trace, in
// display order.
func (t *Trace) Layers() []string {
	seen := make(map[string]bool)
	var out []string
	for _, l := range telemetry.CanonicalLayers {
		for _, sp := range t.spans {
			if sp.Layer == l && !seen[l] {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	for _, sp := range t.spans {
		if !seen[sp.Layer] {
			seen[sp.Layer] = true
			out = append(out, sp.Layer)
		}
	}
	return out
}

// FilterLayers returns a copy of the trace keeping only spans of the
// named layers. Flat events and instants are kept.
func (t *Trace) FilterLayers(layers ...string) *Trace {
	want := make(map[string]bool, len(layers))
	for _, l := range layers {
		want[l] = true
	}
	out := &Trace{
		Events:        t.Events,
		DroppedEvents: t.DroppedEvents,
		OpenSpans:     t.OpenSpans,
		instants:      t.instants,
	}
	for i, sp := range t.spans {
		if want[sp.Layer] {
			out.spans = append(out.spans, sp)
			out.Spans = append(out.Spans, t.Spans[i])
		}
	}
	return out
}

// CriticalPath analyzes the traced operation's blocking chain: the
// partition of the app span's window by the innermost active span,
// attributing every nanosecond of the round trip to one layer. Errors
// when the capture holds no app-layer span (e.g. after FilterLayers
// dropped it).
func (t *Trace) CriticalPath() (*telemetry.CriticalPath, error) {
	return telemetry.AnalyzeCriticalPath(t.spans)
}

// WriteChrome writes the trace as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: one process track
// per layer, plus a "sim-events" track of flat-event instants.
func (t *Trace) WriteChrome(w io.Writer) error {
	return telemetry.WriteChromeTrace(w, t.spans, t.instants)
}

// TraceNet boots a VirtIO-net session and captures every simulation
// event and telemetry span of a single echo round trip.
func TraceNet(cfg NetConfig, payload int) (*Trace, error) {
	ns, err := OpenNet(cfg)
	if err != nil {
		return nil, err
	}
	return ns.trace(func() error {
		_, _, err := ns.Ping(make([]byte, payload))
		return err
	})
}

// TraceXDMA boots a vendor-path session and captures every simulation
// event and telemetry span of a single write()+read() round trip.
func TraceXDMA(cfg XDMAConfig, nbytes int) (*Trace, error) {
	xs, err := OpenXDMA(cfg)
	if err != nil {
		return nil, err
	}
	return xs.trace(func() error {
		_, err := xs.RoundTrip(make([]byte, nbytes))
		return err
	})
}

// TraceNetPing boots a VirtIO-net session and records every simulation
// event of a single echo round trip. It returns an error if the
// capture was truncated by the tracer's event cap.
func TraceNetPing(cfg NetConfig, payload int) ([]TraceEvent, error) {
	t, err := TraceNet(cfg, payload)
	if err != nil {
		return nil, err
	}
	if t.DroppedEvents > 0 {
		return t.Events, fmt.Errorf("fpgavirtio: trace truncated: %d events dropped", t.DroppedEvents)
	}
	return t.Events, nil
}

// TraceXDMARoundTrip boots a vendor-path session and records every
// simulation event of a single write()+read() round trip. It returns
// an error if the capture was truncated by the tracer's event cap.
func TraceXDMARoundTrip(cfg XDMAConfig, bytes int) ([]TraceEvent, error) {
	t, err := TraceXDMA(cfg, bytes)
	if err != nil {
		return nil, err
	}
	if t.DroppedEvents > 0 {
		return t.Events, fmt.Errorf("fpgavirtio: trace truncated: %d events dropped", t.DroppedEvents)
	}
	return t.Events, nil
}
