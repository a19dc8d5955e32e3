//go:build !simrefqueue

package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// modelHeap is an in-test reference implementation of the event queue's
// total order: a straight container/heap over (at, seq). The property
// tests below drive the sorted-slice queue and this model with identical
// randomized schedules and demand identical pop sequences.
type modelHeap []*event

func (h modelHeap) Len() int           { return len(h) }
func (h modelHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h modelHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *modelHeap) Push(x any)        { *h = append(*h, x.(*event)) }
func (h *modelHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// queueHarness mirrors how Sim drives the queue: time only advances to
// the timestamp of the event just popped, and pushes happen at the
// current time.
type queueHarness struct {
	q     equeue
	model modelHeap
	now   Time
	seq   uint64
}

func (h *queueHarness) push(at Time, dead bool) {
	e := &event{at: at, seq: h.seq, dead: dead}
	m := &event{at: at, seq: h.seq, dead: dead}
	h.seq++
	h.q.push(e)
	heap.Push(&h.model, m)
}

// popBoth pops one event from each implementation and checks they agree
// on (at, seq, dead); reports false when both are empty.
func (h *queueHarness) popBoth(t *testing.T, limit Time) bool {
	t.Helper()
	got := h.q.pop(limit)
	var want *event
	if len(h.model) > 0 && h.model[0].at <= limit {
		want = heap.Pop(&h.model).(*event)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("pop mismatch at now=%v limit=%v: queue=%v model=%v", h.now, limit, got, want)
	}
	if got == nil {
		return false
	}
	if got.at != want.at || got.seq != want.seq || got.dead != want.dead {
		t.Fatalf("pop order diverged: queue (at=%v seq=%d) model (at=%v seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	h.now = got.at
	return true
}

// TestQueuePropertyVsHeap drives randomized seeded schedules — bursts
// at the current timestamp, near-future wakes, far timers, and
// cancellations — through the sorted-slice queue and the reference
// heap, asserting identical (at, seq) pop order throughout. This is
// the determinism contract the replay goldens rest on, exercised
// directly at the queue layer.
func TestQueuePropertyVsHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &queueHarness{}
		for step := 0; step < 2000; step++ {
			switch r := rng.Intn(10); {
			case r < 3: // same-timestamp burst
				for i := 0; i < rng.Intn(4)+1; i++ {
					h.push(h.now, rng.Intn(8) == 0)
				}
			case r < 7: // near-future wake, within one round trip
				h.push(h.now+Time(rng.Int63n(int64(32*Microsecond))), rng.Intn(8) == 0)
			case r < 8: // far timer
				h.push(h.now+Time(32*Microsecond)+Time(rng.Int63n(int64(100*Millisecond))), false)
			default: // drain a few
				for i := 0; i < rng.Intn(6)+1; i++ {
					if !h.popBoth(t, maxTime) {
						break
					}
				}
			}
		}
		for h.popBoth(t, maxTime) {
		}
		if len(h.model) != 0 {
			t.Fatalf("seed %d: model has %d leftovers after the queue drained", seed, len(h.model))
		}
	}
}

// TestQueueLimitPops checks the deadline-bounded pop used by RunUntil:
// pops stop exactly at the limit, events beyond it stay queued, and a
// limit before every queued event yields nothing.
func TestQueueLimitPops(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &queueHarness{}
	for i := 0; i < 500; i++ {
		h.push(Time(rng.Int63n(int64(200*Microsecond))), false)
	}
	if e := h.q.pop(-1); e != nil {
		t.Fatalf("pop with a limit before every event returned %v", e)
	}
	limit := Time(100 * Microsecond)
	for h.popBoth(t, limit) {
		if h.now > limit {
			t.Fatalf("popped event at %v past limit %v", h.now, limit)
		}
	}
	// Everything left must be beyond the limit, in both implementations.
	for h.popBoth(t, maxTime) {
		if h.now <= limit {
			t.Fatalf("event at %v <= limit %v survived the bounded drain", h.now, limit)
		}
	}
}
