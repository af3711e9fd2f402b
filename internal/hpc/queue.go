package hpc

// eventQueue is the simulator's pending set: a binary min-heap over Event
// ordered by (Time, Seq). Seq is unique, so the order is total and any
// correct priority queue pops the same sequence. Sift-up and sift-down are
// written out rather than taken from container/heap, whose interface{}
// boxing would allocate on every push. The zero value is an empty queue.
type eventQueue []Event

// less reports whether event i fires before event j.
func (q eventQueue) less(i, j int) bool {
	if q[i].Time != q[j].Time {
		return q[i].Time < q[j].Time
	}
	return q[i].Seq < q[j].Seq
}

// push enqueues an event.
func (q *eventQueue) push(t float64, seq int64, h Handler) {
	e := append(*q, Event{Time: t, Seq: seq, Handler: h})
	for i := len(e) - 1; i > 0; {
		p := (i - 1) / 2
		if !e.less(i, p) {
			break
		}
		e[i], e[p] = e[p], e[i]
		i = p
	}
	*q = e
}

// peekTime returns the earliest pending fire time.
func (q eventQueue) peekTime() (float64, bool) {
	if len(q) == 0 {
		return 0, false
	}
	return q[0].Time, true
}

// pop dequeues the earliest event. The vacated slot is zeroed so no fired
// Handler stays reachable from the backing array.
func (q *eventQueue) pop() (h Handler, t float64, ok bool) {
	n := len(*q) - 1
	if n < 0 {
		return nil, 0, false
	}
	e := *q
	h, t = e[0].Handler, e[0].Time
	e[0] = e[n]
	e[n] = Event{}
	e = e[:n]
	for i := 0; ; {
		m := i
		if l := 2*i + 1; l < n && e.less(l, m) {
			m = l
		}
		if r := 2*i + 2; r < n && e.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		e[i], e[m] = e[m], e[i]
		i = m
	}
	*q = e
	return h, t, true
}

// pending lists every queued event, in heap order, without touching the
// queue.
func (q eventQueue) pending() []Event {
	events := make([]Event, len(q))
	copy(events, q)
	return events
}
