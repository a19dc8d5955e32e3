//go:build !simrefqueue

//fvlint:hotpath
package sim

// equeue is the simulator's event queue: one slice kept sorted
// DESCENDING by (at, seq), so the soonest event sits at the tail. Pop
// is a slice shrink with no sift. Push scans from the tail, where the
// dominant "schedule at now+Δ, fire soon" pattern of the packet hot
// path lands after a step or two, while long timers (watchdogs,
// coalesce deadlines) walk to the head of what is at most a dozen
// events on every measured workload. The container/heap original stays
// behind the `simrefqueue` build tag as the byte-identity reference.
type equeue struct {
	evs []*event
}

// push inserts e at its (at, seq) position.
func (q *equeue) push(e *event) {
	i := len(q.evs)
	q.evs = append(q.evs, e)
	for ; i > 0 && eventLess(q.evs[i-1], e); i-- {
		q.evs[i] = q.evs[i-1]
	}
	q.evs[i] = e
}

// peek returns the (at, seq)-minimal event without removing it, or nil.
func (q *equeue) peek() *event {
	if n := len(q.evs); n > 0 {
		return q.evs[n-1]
	}
	return nil
}

// pop removes and returns the (at, seq)-minimal event if its timestamp
// is <= limit, or nil.
func (q *equeue) pop(limit Time) *event {
	n := len(q.evs)
	if n == 0 || q.evs[n-1].at > limit {
		return nil
	}
	e := q.evs[n-1]
	q.evs[n-1] = nil
	q.evs = q.evs[:n-1]
	return e
}
