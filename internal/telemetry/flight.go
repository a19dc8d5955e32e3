package telemetry

import (
	"errors"
	"sort"

	"fpgavirtio/internal/sim"
)

// Flight recorder: an always-on, allocation-free ring of the most
// recent spans in a session. Unlike the Recorder (installed only
// around explicitly traced operations, and gating the verbose
// per-TLP branches via sim.TracingSpans), the flight recorder rides
// the separate sim.FlightSink channel so it can stay enabled for the
// entire run without perturbing the 0-alloc hot path. When something
// noteworthy happens — a fault-recovery fires, a new worst-case RTT
// lands — Snapshot freezes the ring into a dump slot, giving a
// post-mortem trace of the packets leading up to the event without
// anyone having asked for tracing in advance. Mark and
// AppendWindow read one round trip's spans back out of the ring while
// they are still resident, which is how sweeps attribute their tail
// samples without a second pass.

// Default sizing: the ring holds the last dozen or so round trips'
// spans (a virtio ping closes about 90–140 spans, wire TLPs included;
// XDMA fewer), and a handful of dump slots covers the distinct trigger
// reasons in one run.
const (
	DefaultFlightSpans = 2048
	DefaultFlightDumps = 8

	// flightOpenSlots bounds concurrently-open spans tracked by the
	// recorder. The sim's strict hand-off discipline keeps real nesting
	// depth in single digits; 64 leaves generous headroom.
	flightOpenSlots = 64
)

// FlightSpan is one interval captured by the flight recorder. Dir is
// set for wire-level records (TLP direction) and empty elsewhere.
// Open marks spans still in progress when a dump was taken; their End
// is the dump instant. Seq is the span's begin order within the
// recorder (FlightBegin and FlightClosed draw from one counter), the
// same order a Recorder installed alongside assigns its span IDs in.
type FlightSpan struct {
	Layer string   `json:"layer"`
	Dir   string   `json:"dir,omitempty"`
	Name  string   `json:"name"`
	Start sim.Time `json:"start_ps"`
	End   sim.Time `json:"end_ps"`
	Open  bool     `json:"open,omitempty"`
	Seq   uint64   `json:"-"`
}

// Duration is the span's extent.
func (s FlightSpan) Duration() sim.Duration { return s.End.Sub(s.Start) }

// FlightDump is one frozen snapshot of the ring.
type FlightDump struct {
	// Reason names the trigger ("fault:needsreset", "worst-rtt", ...).
	Reason string `json:"reason"`
	// At is the sim time the snapshot was taken.
	At sim.Time `json:"at_ps"`
	// Seq orders dumps within a run (1-based; later overwrites of the
	// same reason keep the slot but bump the Seq).
	Seq int64 `json:"seq"`
	// Spans are the captured intervals in chronological order.
	Spans []FlightSpan `json:"spans"`
}

type flightOpen struct {
	id    uint64
	layer string
	name  string
	start sim.Time
}

type flightSlot struct {
	used   bool
	reason string
	at     sim.Time
	seq    int64
	spans  []FlightSpan // ring+open capacity, allocated on the slot's first use
}

// FlightRecorder implements sim.FlightSink with a fixed-size span
// ring, a fixed open-span side table, and dump slots whose span buffers
// are allocated by the first Snapshot into each slot (a session run
// without faults fills only its worst-RTT slot). Apart from that one
// allocation per slot no method on the packet path allocates, so a
// session can leave it installed for a 50k-packet sweep without moving
// the alloc budget.
//
// Dump slots are keyed by reason: a second snapshot with the same
// reason overwrites the earlier one (keeping the freshest context for
// that trigger), and snapshots beyond the slot count are counted as
// dropped rather than evicting a different reason.
type FlightRecorder struct {
	ring   []FlightSpan
	head   int    // next write position
	n      int    // filled entries, <= len(ring)
	pushed uint64 // spans pushed over the recorder's lifetime

	open   [flightOpenSlots]flightOpen
	nextID uint64
	// droppedSeq is the begin order of the latest span the open table
	// had no room for (0 = none yet).
	droppedSeq uint64

	slots   []flightSlot
	dumpSeq int64

	captured     *Counter
	dropped      *Counter
	dumps        *Counter
	dumpsDropped *Counter
}

// NewFlightRecorder returns a recorder with spanCap ring entries and
// dumpSlots snapshot slots (defaults apply for values <= 0),
// registering its recorder.* counters in reg (which may be nil).
func NewFlightRecorder(spanCap, dumpSlots int, reg *Registry) *FlightRecorder {
	if spanCap <= 0 {
		spanCap = DefaultFlightSpans
	}
	if dumpSlots <= 0 {
		dumpSlots = DefaultFlightDumps
	}
	fr := &FlightRecorder{
		ring:         make([]FlightSpan, spanCap),
		slots:        make([]flightSlot, dumpSlots),
		captured:     reg.Counter(MetricRecorderSpansCaptured),
		dropped:      reg.Counter(MetricRecorderSpansDropped),
		dumps:        reg.Counter(MetricRecorderDumps),
		dumpsDropped: reg.Counter(MetricRecorderDumpsDropped),
	}
	return fr
}

// FlightBegin implements sim.FlightSink: it opens a span in the side
// table and returns its id. When the table is full the span is
// counted as dropped and its eventual FlightEnd is a no-op.
func (fr *FlightRecorder) FlightBegin(at sim.Time, layer, name string) uint64 {
	fr.nextID++
	id := fr.nextID
	for i := range fr.open {
		if fr.open[i].id == 0 {
			fr.open[i] = flightOpen{id: id, layer: layer, name: name, start: at}
			return id
		}
	}
	fr.droppedSeq = id
	fr.dropped.Inc()
	return id
}

// FlightEnd implements sim.FlightSink: it closes the span opened
// under id and pushes it into the ring. Unknown ids (dropped opens,
// or spans begun before the recorder was installed) are ignored.
func (fr *FlightRecorder) FlightEnd(at sim.Time, id uint64) {
	if id == 0 {
		return
	}
	for i := range fr.open {
		if fr.open[i].id == id {
			o := &fr.open[i]
			fr.push(FlightSpan{Layer: o.layer, Name: o.name, Start: o.start, End: at, Seq: id})
			o.id = 0
			return
		}
	}
}

// FlightClosed implements sim.FlightSink: it records an interval whose
// endpoints are already known — the wire layer uses it to log each TLP
// without paying the open-table round trip. The span takes its begin
// order now, so end may lie in the future.
func (fr *FlightRecorder) FlightClosed(at sim.Time, layer, dir, name string, start, end sim.Time) {
	fr.nextID++
	fr.push(FlightSpan{Layer: layer, Dir: dir, Name: name, Start: start, End: end, Seq: fr.nextID})
}

func (fr *FlightRecorder) push(sp FlightSpan) {
	fr.ring[fr.head] = sp
	fr.head++
	if fr.head == len(fr.ring) {
		fr.head = 0
	}
	if fr.n < len(fr.ring) {
		fr.n++
	}
	fr.pushed++
	fr.captured.Inc()
}

// FlightMark is a position in the recorder's span stream, taken by
// Mark and read back by AppendWindow.
type FlightMark struct {
	seq    uint64 // begin order of the first span begun after the mark
	pushed uint64 // ring pushes before the mark
}

// Window errors: AppendWindow never returns a partial window.
var (
	ErrFlightOverrun = errors.New("telemetry: flight ring overran the window")
	ErrFlightDropped = errors.New("telemetry: flight open table dropped a span in the window")
)

// Mark records the current position in the span stream.
func (fr *FlightRecorder) Mark() FlightMark {
	return FlightMark{seq: fr.nextID + 1, pushed: fr.pushed}
}

// AppendWindow appends to dst, in ring order, every span that began
// since mark and had ended by now — exactly the closed spans a
// Recorder installed at the mark and removed at now would hold. Wire
// and MSI-X spans enter the ring when queued, with an End that may
// still lie ahead; those are left out. It fails rather than return a
// window the ring or the open table could not hold whole.
// Allocation-free once dst has the capacity.
func (fr *FlightRecorder) AppendWindow(dst []FlightSpan, mark FlightMark, now sim.Time) ([]FlightSpan, error) {
	if fr.droppedSeq >= mark.seq {
		return dst, ErrFlightDropped
	}
	since := fr.pushed - mark.pushed
	if since > uint64(len(fr.ring)) {
		return dst, ErrFlightOverrun
	}
	i := fr.head - int(since)
	if i < 0 {
		i += len(fr.ring)
	}
	for ; since > 0; since-- {
		if sp := &fr.ring[i]; sp.Seq >= mark.seq && sp.End <= now {
			dst = append(dst, *sp)
		}
		if i++; i == len(fr.ring) {
			i = 0
		}
	}
	return dst, nil
}

// Snapshot freezes the current ring (plus still-open spans, marked
// Open with End=at) into a dump slot and reports whether a slot was
// available. A reason seen before reuses its slot — the dump always
// reflects the latest occurrence. Allocation-free after its slot's
// first use.
func (fr *FlightRecorder) Snapshot(reason string, at sim.Time) bool {
	slot := -1
	for i := range fr.slots {
		if fr.slots[i].used && fr.slots[i].reason == reason {
			slot = i
			break
		}
	}
	if slot < 0 {
		for i := range fr.slots {
			if !fr.slots[i].used {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		fr.dumpsDropped.Inc()
		return false
	}
	s := &fr.slots[slot]
	if s.spans == nil {
		s.spans = make([]FlightSpan, 0, len(fr.ring)+flightOpenSlots)
	}
	s.used = true
	s.reason = reason
	s.at = at
	fr.dumpSeq++
	s.seq = fr.dumpSeq
	s.spans = s.spans[:0]
	// Chronological ring copy: oldest entry is at head when the ring
	// has wrapped, at 0 otherwise.
	if fr.n == len(fr.ring) {
		s.spans = append(s.spans, fr.ring[fr.head:]...)
		s.spans = append(s.spans, fr.ring[:fr.head]...)
	} else {
		s.spans = append(s.spans, fr.ring[:fr.n]...)
	}
	for i := range fr.open {
		if fr.open[i].id != 0 {
			o := &fr.open[i]
			s.spans = append(s.spans, FlightSpan{
				Layer: o.layer, Name: o.name, Start: o.start, End: at, Open: true,
			})
		}
	}
	fr.dumps.Inc()
	return true
}

// Dumps returns copies of the taken snapshots ordered by Seq. Cold
// path: allocates.
func (fr *FlightRecorder) Dumps() []FlightDump {
	var out []FlightDump
	for i := range fr.slots {
		s := &fr.slots[i]
		if !s.used {
			continue
		}
		out = append(out, FlightDump{
			Reason: s.reason,
			At:     s.at,
			Seq:    s.seq,
			Spans:  append([]FlightSpan(nil), s.spans...),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Captured reports the total spans pushed into the ring over the
// recorder's lifetime (not just those currently resident).
func (fr *FlightRecorder) Captured() int64 { return fr.captured.Value() }

// Len reports the spans currently resident in the ring.
func (fr *FlightRecorder) Len() int { return fr.n }

// span converts fs to a telemetry Span with the given id, composing a
// wire span's name as "dir:name" like the verbose span path does.
func (fs FlightSpan) span(id uint64) Span {
	name := fs.Name
	if fs.Dir != "" {
		name = fs.Dir + ":" + fs.Name
	}
	return Span{ID: id, Layer: fs.Layer, Name: name, Start: fs.Start, End: fs.End}
}

// DumpSpans converts a dump's flight spans to telemetry Spans so the
// Chrome exporter can render them (IDs are synthesized 1..n in
// chronological order; open spans get an "open=true" attr).
func DumpSpans(d FlightDump) []Span {
	out := make([]Span, 0, len(d.Spans))
	for i, fs := range d.Spans {
		sp := fs.span(uint64(i + 1))
		if fs.Open {
			sp.Attrs = []string{"open", "true"}
		}
		out = append(out, sp)
	}
	return out
}

// WindowSpans converts an AppendWindow result into the spans a
// Recorder.Spans call over the same window returns: IDs in begin
// order, sorted by (Start, ID).
func WindowSpans(w []FlightSpan) []Span {
	out := make([]Span, len(w))
	for i, fs := range w {
		out[i] = fs.span(fs.Seq)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}
