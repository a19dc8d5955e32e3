package telemetry

import (
	"errors"
	"reflect"
	"testing"

	"fpgavirtio/internal/sim"
)

// TestFlightRingWrap: a full ring evicts oldest-first and the snapshot
// comes out in chronological order across the wrap point.
func TestFlightRingWrap(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(4, 2, reg)
	for i := int64(0); i < 6; i++ {
		fr.FlightClosed(ps(i), LayerWire, "down", "MWr", ps(i), ps(i+1))
	}
	if fr.Len() != 4 {
		t.Fatalf("ring holds %d spans, want 4", fr.Len())
	}
	if fr.Captured() != 6 {
		t.Fatalf("captured = %d, want 6", fr.Captured())
	}
	if !fr.Snapshot("test", ps(10)) {
		t.Fatal("snapshot refused with free slots")
	}
	dumps := fr.Dumps()
	if len(dumps) != 1 || len(dumps[0].Spans) != 4 {
		t.Fatalf("got %d dumps / %d spans, want 1 / 4", len(dumps), len(dumps[0].Spans))
	}
	for i, sp := range dumps[0].Spans {
		if want := ps(int64(i) + 2); sp.Start != want {
			t.Errorf("span %d starts at %v, want %v (chronological across the wrap)", i, sp.Start, want)
		}
	}
}

// TestFlightOpenSpans: begun-but-unfinished spans appear in a dump
// marked Open with End at the dump instant, and close normally
// afterwards.
func TestFlightOpenSpans(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(16, 2, reg)
	id := fr.FlightBegin(ps(5), LayerDriver, "xmit")
	if !fr.Snapshot("mid", ps(9)) {
		t.Fatal("snapshot refused")
	}
	d := fr.Dumps()[0]
	if len(d.Spans) != 1 {
		t.Fatalf("dump has %d spans, want 1 open span", len(d.Spans))
	}
	if !d.Spans[0].Open || d.Spans[0].End != ps(9) {
		t.Errorf("open span = %+v, want Open=true End=9ns", d.Spans[0])
	}
	// The span still closes into the ring afterwards.
	fr.FlightEnd(ps(12), id)
	if fr.Len() != 1 {
		t.Fatalf("ring holds %d spans after close, want 1", fr.Len())
	}
}

// TestFlightOpenTableOverflow: more concurrently-open spans than side
// table slots count as dropped, and the overflow id's FlightEnd is a
// harmless no-op.
func TestFlightOpenTableOverflow(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(16, 2, reg)
	ids := make([]uint64, 0, flightOpenSlots+1)
	for i := 0; i <= flightOpenSlots; i++ {
		ids = append(ids, fr.FlightBegin(ps(int64(i)), LayerDriver, "deep"))
	}
	if got := reg.Counter(MetricRecorderSpansDropped).Value(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	fr.FlightEnd(ps(100), ids[len(ids)-1]) // dropped open: no-op
	if fr.Len() != 0 {
		t.Fatalf("ring holds %d spans, want 0 (overflow span was dropped)", fr.Len())
	}
	fr.FlightEnd(ps(100), ids[0]) // tracked open still closes
	if fr.Len() != 1 {
		t.Fatalf("ring holds %d spans, want 1", fr.Len())
	}
}

// TestFlightSameReasonOverwrite: a repeated trigger reuses its slot and
// keeps the freshest context.
func TestFlightSameReasonOverwrite(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(8, 2, reg)
	fr.FlightClosed(ps(1), LayerWire, "down", "MWr", ps(1), ps(2))
	fr.Snapshot("fault:needsreset", ps(2))
	fr.FlightClosed(ps(3), LayerWire, "up", "CplD", ps(3), ps(4))
	fr.Snapshot("fault:needsreset", ps(4))

	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1 (same reason overwrites)", len(dumps))
	}
	if dumps[0].Seq != 2 || dumps[0].At != ps(4) {
		t.Errorf("dump seq/at = %d/%v, want 2/4ns (the later occurrence)", dumps[0].Seq, dumps[0].At)
	}
	if len(dumps[0].Spans) != 2 {
		t.Errorf("dump has %d spans, want 2", len(dumps[0].Spans))
	}
	if got := reg.Counter(MetricRecorderDumps).Value(); got != 2 {
		t.Errorf("recorder.dumps = %d, want 2 (both snapshots counted)", got)
	}
}

// TestFlightDumpSlotExhaustion: distinct reasons beyond the slot count
// are refused and counted, never evicting another reason's dump.
func TestFlightDumpSlotExhaustion(t *testing.T) {
	reg := NewRegistry()
	fr := NewFlightRecorder(8, 2, reg)
	if !fr.Snapshot("a", ps(1)) || !fr.Snapshot("b", ps(2)) {
		t.Fatal("first two snapshots refused")
	}
	if fr.Snapshot("c", ps(3)) {
		t.Fatal("third distinct reason took a slot; want refusal")
	}
	if got := reg.Counter(MetricRecorderDumpsDropped).Value(); got != 1 {
		t.Fatalf("recorder.dumps.dropped = %d, want 1", got)
	}
	dumps := fr.Dumps()
	if len(dumps) != 2 || dumps[0].Reason != "a" || dumps[1].Reason != "b" {
		t.Fatalf("dumps = %+v, want reasons a, b intact", dumps)
	}
	// The established reasons still refresh.
	if !fr.Snapshot("a", ps(5)) {
		t.Fatal("existing reason refused after exhaustion")
	}
}

// TestFlightDumpSpans: the Chrome-export conversion prefixes wire
// direction and tags open spans.
func TestFlightDumpSpans(t *testing.T) {
	d := FlightDump{Spans: []FlightSpan{
		{Layer: LayerWire, Dir: "down", Name: "MWr", Start: ps(0), End: ps(2)},
		{Layer: LayerDriver, Name: "xmit", Start: ps(1), End: ps(5), Open: true},
	}}
	spans := DumpSpans(d)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "down:MWr" || spans[0].ID != 1 {
		t.Errorf("wire span = %+v, want name down:MWr id 1", spans[0])
	}
	if spans[1].Name != "xmit" || len(spans[1].Attrs) != 2 || spans[1].Attrs[0] != "open" {
		t.Errorf("open span = %+v, want open attr", spans[1])
	}
}

// windowTee drives one span stream into a FlightRecorder and, from the
// mark on, a Recorder — the two sinks sim.BeginSpan feeds when both are
// installed — so a window can be checked against what the Recorder
// holds.
type windowTee struct {
	fr  *FlightRecorder
	rec *Recorder // nil before the mark
}

type teeID struct{ rec, fl uint64 }

func (w *windowTee) mark() FlightMark {
	w.rec = NewRecorder(0)
	return w.fr.Mark()
}

func (w *windowTee) begin(at int64, layer, name string) teeID {
	var id teeID
	if w.rec != nil {
		id.rec = w.rec.SpanBegin(ps(at), layer, name)
	}
	id.fl = w.fr.FlightBegin(ps(at), layer, name)
	return id
}

func (w *windowTee) end(at int64, id teeID) {
	if w.rec != nil {
		w.rec.SpanEnd(ps(at), id.rec)
	}
	w.fr.FlightEnd(ps(at), id.fl)
}

// tlp queues a wire TLP at `at` arriving at `arrive`: the flight ring
// takes it closed at once, the Recorder sees it begin now and must be
// ended with end(arrive, id) once the arrival has happened.
func (w *windowTee) tlp(at, arrive int64, dir, what string) teeID {
	var id teeID
	if w.rec != nil {
		id.rec = w.rec.SpanBegin(ps(at), LayerWire, dir+":"+what)
	}
	w.fr.FlightClosed(ps(at), LayerWire, dir, what, ps(at), ps(arrive))
	return id
}

// check asserts the window at now equals the Recorder's spans, IDs
// aside, and returns it.
func (w *windowTee) check(t *testing.T, mark FlightMark, now int64) []Span {
	t.Helper()
	win, err := w.fr.AppendWindow(nil, mark, ps(now))
	if err != nil {
		t.Fatalf("AppendWindow: %v", err)
	}
	got, want := WindowSpans(win), w.rec.Spans()
	if len(got) != len(want) {
		t.Fatalf("window holds %d spans %+v, recorder %d %+v", len(got), got, len(want), want)
	}
	for i := range got {
		g, r := got[i], want[i]
		if g.Layer != r.Layer || g.Name != r.Name || g.Start != r.Start || g.End != r.End {
			t.Errorf("span %d: window %+v, recorder %+v", i, g, r)
		}
	}
	return got
}

// TestFlightWindowRules: a window keeps the spans begun since the mark
// that have ended by now — not those begun before the mark, and not a
// TLP still on the wire — exactly as a Recorder installed over the same
// interval holds them.
func TestFlightWindowRules(t *testing.T) {
	w := &windowTee{fr: NewFlightRecorder(64, 1, nil)}
	before := w.begin(0, LayerDriver, "napi") // begun before the mark, ends inside
	w.fr.FlightClosed(ps(1), LayerWire, "up", "MWr", ps(1), ps(30))
	mark := w.mark()
	app := w.begin(10, LayerApp, "ping")
	sys := w.begin(11, LayerSyscall, "enter")
	w.end(12, before)
	w.end(13, sys)
	landed := w.tlp(14, 16, "down", "MWr")
	w.end(16, landed)
	w.tlp(18, 40, "down", "MWr") // still on the wire at return
	w.end(20, app)
	spans := w.check(t, mark, 20)
	if len(spans) != 3 {
		t.Fatalf("window = %+v, want app, syscall and the landed TLP", spans)
	}
	if spans[2].Name != "down:MWr" || spans[2].End != ps(16) {
		t.Errorf("wire span = %+v, want down:MWr ending at 16ns", spans[2])
	}
	cp, err := AnalyzeCriticalPath(spans)
	if err != nil || cp.Total() != sim.Ns(10) {
		t.Fatalf("critical path = %+v, %v; want a 10ns app window", cp, err)
	}
}

// TestFlightWindowEqualStartTies: spans that start together keep their
// begin order (the Recorder's ID order) whatever order they closed in,
// so the critical path breaks ties the same way.
func TestFlightWindowEqualStartTies(t *testing.T) {
	w := &windowTee{fr: NewFlightRecorder(64, 1, nil)}
	mark := w.mark()
	app := w.begin(0, LayerApp, "ping")
	a := w.begin(5, LayerDriver, "xmit")
	b := w.begin(5, LayerIRQ, "msix")
	w.end(9, b)
	w.end(9, a)
	w.end(12, app)
	spans := w.check(t, mark, 12)
	if spans[1].Name != "xmit" || spans[2].Name != "msix" || spans[1].ID >= spans[2].ID {
		t.Fatalf("tied spans = %+v, want xmit then msix in begin order", spans)
	}
	cp, err := AnalyzeCriticalPath(spans)
	if err != nil {
		t.Fatal(err)
	}
	// Equal intervals nest symmetrically; the later-begun span wins.
	if seg := cp.Segments[1]; seg.Name != "msix" || seg.Duration() != sim.Ns(4) {
		t.Errorf("tied segment = %+v, want msix for 4ns", seg)
	}
}

// TestFlightWindowOverrun: a window is refused once more spans were
// pushed since the mark than the ring holds, and served up to that.
func TestFlightWindowOverrun(t *testing.T) {
	fr := NewFlightRecorder(4, 1, nil)
	fr.FlightClosed(ps(0), LayerWire, "down", "MWr", ps(0), ps(1))
	mark := fr.Mark()
	for i := int64(1); i <= 4; i++ {
		fr.FlightClosed(ps(i), LayerWire, "down", "MWr", ps(i), ps(i+1))
	}
	win, err := fr.AppendWindow(nil, mark, ps(10))
	if err != nil || len(win) != 4 {
		t.Fatalf("full ring: window of %d, err %v; want all 4", len(win), err)
	}
	fr.FlightClosed(ps(5), LayerWire, "down", "MWr", ps(5), ps(6))
	if win, err := fr.AppendWindow(win[:0], mark, ps(10)); !errors.Is(err, ErrFlightOverrun) || len(win) != 0 {
		t.Fatalf("overrun: window of %d, err %v; want ErrFlightOverrun and nothing", len(win), err)
	}
	if win, err := fr.AppendWindow(nil, fr.Mark(), ps(10)); err != nil || len(win) != 0 {
		t.Fatalf("fresh mark: window of %d, err %v; want empty", len(win), err)
	}
}

// TestFlightWindowOpenTableOverflow: a span the open table dropped
// inside the window fails it; one dropped before the mark does not.
func TestFlightWindowOpenTableOverflow(t *testing.T) {
	fr := NewFlightRecorder(256, 1, nil)
	var ids []uint64
	for i := 0; i <= flightOpenSlots; i++ {
		ids = append(ids, fr.FlightBegin(ps(int64(i)), LayerDriver, "deep"))
	}
	for _, id := range ids {
		fr.FlightEnd(ps(100), id)
	}
	mark := fr.Mark()
	app := fr.FlightBegin(ps(101), LayerApp, "ping")
	fr.FlightEnd(ps(102), app)
	if win, err := fr.AppendWindow(nil, mark, ps(102)); err != nil || len(win) != 1 {
		t.Fatalf("drop before the mark: window of %d, err %v; want the app span", len(win), err)
	}

	mark = fr.Mark()
	ids = ids[:0]
	for i := 0; i <= flightOpenSlots; i++ {
		ids = append(ids, fr.FlightBegin(ps(int64(200+i)), LayerDriver, "deep"))
	}
	for _, id := range ids {
		fr.FlightEnd(ps(300), id)
	}
	if _, err := fr.AppendWindow(nil, mark, ps(300)); !errors.Is(err, ErrFlightDropped) {
		t.Fatalf("drop inside the window: err %v, want ErrFlightDropped", err)
	}
}

// TestFlightWindowZeroAlloc: reading a window into a buffer that has
// the capacity allocates nothing.
func TestFlightWindowZeroAlloc(t *testing.T) {
	fr := NewFlightRecorder(64, 1, nil)
	mark := fr.Mark()
	for i := int64(0); i < 16; i++ {
		id := fr.FlightBegin(ps(i), LayerDriver, "xmit")
		fr.FlightEnd(ps(i+1), id)
	}
	buf := make([]FlightSpan, 0, 16)
	if n := testing.AllocsPerRun(10, func() { buf, _ = fr.AppendWindow(buf[:0], mark, ps(20)) }); n != 0 {
		t.Fatalf("AppendWindow allocates %.1f objects, want 0", n)
	}
}

// TestFlightSlotAllocatedOnFirstUse: a dump slot's span buffer is made
// by the first Snapshot into it (one allocation), a repeat Snapshot
// with the same reason reuses it allocation-free, and a recorder that
// sees one reason holds one buffer however many slots it has.
func TestFlightSlotAllocatedOnFirstUse(t *testing.T) {
	const runs = 20
	recs := make([]*FlightRecorder, runs+1) // AllocsPerRun warms up once
	for i := range recs {
		recs[i] = NewFlightRecorder(16, 11, nil)
		recs[i].FlightClosed(ps(1), LayerWire, "down", "MWr", ps(1), ps(2))
	}
	next := 0
	first := testing.AllocsPerRun(runs, func() {
		recs[next].Snapshot("worst-rtt", ps(3))
		next++
	})
	if first != 1 {
		t.Fatalf("first Snapshot into a slot allocates %v times, want 1", first)
	}

	fr := recs[0]
	if n := testing.AllocsPerRun(runs, func() { fr.Snapshot("worst-rtt", ps(4)) }); n != 0 {
		t.Fatalf("repeat Snapshot allocates %v times, want 0", n)
	}
	held := 0
	for i := range fr.slots {
		if fr.slots[i].spans != nil {
			held++
		}
	}
	if held != 1 {
		t.Fatalf("11-slot recorder that saw one reason holds %d span buffers, want 1", held)
	}
}

// TestFlightDumpsUnchangedByLazySlots: what Dumps returns is the same
// whichever slots were allocated: only used slots appear, in Seq order,
// each with the ring plus open spans at its latest snapshot.
func TestFlightDumpsUnchangedByLazySlots(t *testing.T) {
	fr := NewFlightRecorder(4, 11, nil)
	if got := fr.Dumps(); got != nil {
		t.Fatalf("Dumps before any snapshot = %+v, want nil", got)
	}
	fr.Snapshot("empty", ps(1))
	fr.FlightClosed(ps(2), LayerWire, "down", "MWr", ps(2), ps(3))
	open := fr.FlightBegin(ps(4), LayerDriver, "xmit")
	fr.Snapshot("fault:irqdrop", ps(5))
	fr.FlightEnd(ps(6), open)
	fr.Snapshot("empty", ps(7))

	mwr := FlightSpan{Layer: LayerWire, Dir: "down", Name: "MWr", Start: ps(2), End: ps(3), Seq: 1}
	xmit := FlightSpan{Layer: LayerDriver, Name: "xmit", Start: ps(4), End: ps(6), Seq: 2}
	want := []FlightDump{
		{Reason: "fault:irqdrop", At: ps(5), Seq: 2, Spans: []FlightSpan{
			mwr,
			{Layer: LayerDriver, Name: "xmit", Start: ps(4), End: ps(5), Open: true},
		}},
		{Reason: "empty", At: ps(7), Seq: 3, Spans: []FlightSpan{mwr, xmit}},
	}
	if got := fr.Dumps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Dumps =\n%+v\nwant\n%+v", got, want)
	}
}
