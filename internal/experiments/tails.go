package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"fpgavirtio/internal/sim"
	"fpgavirtio/internal/telemetry"
)

// Tail-latency attribution in a single pass: the tail_attribution
// block is built from spans captured while the sweep measures.
//
// Every session's always-on flight ring sees each round trip's spans.
// The measurement callback keeps the K slowest clean samples so far
// (a min-heap on (RTT, loop index), the tie order the percentile ranks
// use) and copies each accepted sample's raw window out of the ring
// into the buffer of the entry it evicts. The window is what a span
// Recorder installed around that one round trip would hold: spans
// begun since the round trip started that have closed by the time it
// returns (see telemetry.FlightRecorder.AppendWindow). K is
// n − ⌈0.99·n⌉ + 1 for the planned n round trips, so p99, p99.9 and
// the maximum always fall among the kept samples, however many a fault
// plan excludes. AttributeTails then analyses only the three picked
// windows; no session is re-opened and nothing is replayed.
// CaptureCriticalPaths, the replay of a fresh session up to each
// picked index, remains as the test oracle this pass must agree with.

// tailRanks are the tail positions attributed per point, in the order
// they appear in the artifact.
var tailRanks = []struct {
	name string
	q    float64 // percentile; <0 means the maximum
}{
	{"p99", 99},
	{"p99.9", 99.9},
	{"max", -1},
}

// nearestRank is the 1-based rank of percentile q among n samples,
// with the same arithmetic (and float-epsilon guard) as
// perf.Series.Percentile, so an attributed sample is the one the
// artifact's percentile row reports.
func nearestRank(q float64, n int) int {
	rank := int(math.Ceil(q/100*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// tailKeep is how many of the slowest samples a point must keep so
// that every tail rank of n samples is among them. It is non-decreasing
// in n, so sizing from the planned count covers any smaller clean one.
func tailKeep(n int) int { return n - nearestRank(tailRanks[0].q, n) + 1 }

// spanWindow is a session's view of its latest round trip's spans.
type spanWindow interface {
	AppendLastSpans(dst []telemetry.FlightSpan) ([]telemetry.FlightSpan, error)
}

// tailEntry is one kept sample and its raw flight window.
type tailEntry struct {
	rtt   int64 // measured RTT, ns
	loop  int   // series loop index
	spans []telemetry.FlightSpan
	err   error // the window could not be captured whole
}

// less orders entries by (RTT, loop index).
func (e *tailEntry) less(o *tailEntry) bool {
	if e.rtt != o.rtt {
		return e.rtt < o.rtt
	}
	return e.loop < o.loop
}

// tailCollector keeps the k slowest clean samples of one series with
// their flight windows. Once warm it allocates nothing: an accepted
// sample reuses the span buffer of the entry it evicts.
type tailCollector struct {
	k     int
	clean int         // clean samples offered
	heap  []tailEntry // min-heap by less, len <= k
}

func newTailCollector(packets int) *tailCollector {
	k := tailKeep(packets)
	return &tailCollector{k: k, heap: make([]tailEntry, 0, k)}
}

// offer records clean sample loop with the given RTT, copying its
// window from src when it ranks among the k slowest so far. Loop
// indices must increase, so an RTT equal to the heap's minimum
// outranks it (later index).
func (tc *tailCollector) offer(src spanWindow, loop int, rtt int64) {
	tc.clean++
	if n := len(tc.heap); n < tc.k {
		tc.heap = tc.heap[:n+1]
		tc.heap[n].fill(src, loop, rtt)
		tc.up(n)
		return
	}
	if rtt < tc.heap[0].rtt {
		return
	}
	tc.heap[0].fill(src, loop, rtt)
	tc.down(0)
}

// fill makes e the given sample, reusing its span buffer.
func (e *tailEntry) fill(src spanWindow, loop int, rtt int64) {
	e.rtt, e.loop = rtt, loop
	e.spans, e.err = src.AppendLastSpans(e.spans[:0])
}

func (tc *tailCollector) up(i int) {
	h := tc.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].less(&h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (tc *tailCollector) down(i int) {
	h := tc.heap
	for {
		min := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].less(&h[min]) {
				min = c
			}
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// AttributeTails fills PointResult.Tail across the sweep from the
// windows the measurement pass kept: each point's p99, p99.9 and max
// samples are run through the critical-path analyser. It opens no
// session. Call it after the measurement pass.
func AttributeTails(sw *Sweep) error {
	for _, pts := range [][]*PointResult{sw.VirtIO, sw.XDMA} {
		for _, pt := range pts {
			if err := attributePoint(pt); err != nil {
				return err
			}
		}
	}
	return nil
}

// RenderTailReport renders the sweep's tail attribution as text: one
// line per tail-ranked sample showing where its nanoseconds went.
// Empty when AttributeTails has not run.
func RenderTailReport(sw *Sweep) string {
	var b strings.Builder
	points := append(append([]*PointResult{}, sw.VirtIO...), sw.XDMA...)
	for _, pt := range points {
		if pt == nil || len(pt.Tail) == 0 {
			continue
		}
		if b.Len() == 0 {
			b.WriteString("Tail attribution — critical path per tail sample\n")
		}
		for _, ts := range pt.Tail {
			fmt.Fprintf(&b, "  %-6s %5dB  %-5s %9.3fus:", pt.Driver, pt.Payload, ts.Rank,
				float64(ts.RTTNs)/1000)
			for _, l := range ts.Layers {
				fmt.Fprintf(&b, "  %s %.1f%%", l.Layer, 100*l.Share)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// attributePoint picks the point's tail-ranked samples from its kept
// entries and converts each one's critical path into a TailSample.
func attributePoint(pt *PointResult) error {
	if pt == nil || pt.tails == nil || pt.tails.clean == 0 {
		return nil
	}
	tc := pt.tails
	// Ascending (RTT, loop) order: the kept entries are the top of the
	// full clean order, which ranks 1..skipped fill. (A sorted slice is
	// still a valid min-heap.)
	kept := tc.heap
	sort.Slice(kept, func(a, b int) bool { return kept[a].less(&kept[b]) })
	n := tc.clean
	skipped := n - len(kept)

	pt.Tail = pt.Tail[:0]
	for _, r := range tailRanks {
		rank := n
		if r.q >= 0 {
			rank = nearestRank(r.q, n)
		}
		if rank <= skipped {
			return fmt.Errorf("tail attribution %s/%dB: rank %d of %d not among the %d kept samples",
				pt.Driver, pt.Payload, rank, n, len(kept))
		}
		e := &kept[rank-1-skipped]
		if e.err != nil {
			return fmt.Errorf("tail attribution %s/%dB: index %d: %w", pt.Driver, pt.Payload, e.loop, e.err)
		}
		cp, err := telemetry.AnalyzeCriticalPath(telemetry.WindowSpans(e.spans))
		if err != nil {
			return fmt.Errorf("tail attribution %s/%dB: index %d: %w", pt.Driver, pt.Payload, e.loop, err)
		}
		pt.Tail = append(pt.Tail, tailSample(r.name, e.loop, e.rtt, cp))
	}
	return nil
}

// tailSample converts one critical path into the artifact's shape.
// Per-layer ns come from telescoping cumulative rounding: each boundary
// is truncated to whole ns and layers take the differences, so the
// layer values sum to the truncated total EXACTLY (a per-layer
// truncation could drift by one ns per layer and fail the artifact
// validator).
func tailSample(rank string, loop int, rttNs int64, cp *telemetry.CriticalPath) telemetry.TailSample {
	ts := telemetry.TailSample{Rank: rank, Index: loop, RTTNs: rttNs}
	var accPs, prevNs int64
	for _, st := range cp.Layers {
		accPs += int64(st.Total)
		curNs := accPs / int64(sim.Nanosecond)
		ts.Layers = append(ts.Layers, telemetry.TailLayer{
			Layer: st.Layer,
			Ns:    curNs - prevNs,
			Share: st.Share,
		})
		prevNs = curNs
	}
	ts.SumNs = prevNs
	return ts
}
