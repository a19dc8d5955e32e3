package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanLog records the traced run's spans: one around every call the
// benchmark makes into the system (boots, series, streams, the sweep
// and its cells, tail replay, export), parented to the repetition that
// made it. Spans stay in memory and are written when the run ends. A
// nil *spanLog records nothing, which is how untraced repetitions run.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

// spanRec is one span; times are ns since the run started.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRec{ID: len(l.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere, such as a
// sweep cell timed from the sweep's progress callback.
func (l *spanLog) add(name string, parent int, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, spanRec{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
}

// merge adds a child process's spans, recorded against the child's own
// clock, shifted to start at childStart on this log's clock.
func (l *spanLog) merge(spans []spanRec, childStart time.Time) {
	base := len(l.spans)
	off := childStart.Sub(l.t0).Nanoseconds()
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Start += off
		s.End += off
		l.spans = append(l.spans, s)
	}
}

// finish computes every span's self time: its duration minus the part
// of it that its children's intervals cover. Children of one parent can
// overlap (sweep cells run on two workers), so the covered part is the
// union of their intervals, clipped to the parent.
func (l *spanLog) finish() {
	children := map[int][]spanRec{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range l.spans {
		s := &l.spans[i]
		s.Self = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
}

// covered returns how much of [lo, hi) the union of spans covers.
func covered(lo, hi int64, spans []spanRec) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.End, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// kind is a span's name up to its first space ("cell virtio/64B" is a
// "cell").
func kind(name string) string {
	k, _, _ := strings.Cut(name, " ")
	return k
}

// summarize writes the total and self time per span kind.
func (l *spanLog) summarize(w io.Writer) {
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var kinds []string
	for _, s := range l.spans {
		k := kind(s.Name)
		a := by[k]
		if a == nil {
			a = &agg{}
			by[k] = a
			kinds = append(kinds, k)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.Self
	}
	fmt.Fprintf(w, "  %-10s %6s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, k := range kinds {
		a := by[k]
		fmt.Fprintf(w, "  %-10s %6d %12.4f %12.4f\n", k, a.n, float64(a.total)/1e9, float64(a.self)/1e9)
	}
}

// write saves the spans as JSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(struct {
		Spans []spanRec `json:"spans"`
	}{l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
