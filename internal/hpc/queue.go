package hpc

import "math"

// The simulator's event queue is a calendar queue (R. Brown, "Calendar
// Queues: A Fast O(1) Priority Queue Implementation for the Simulation
// Event Set Problem", CACM 1988): event records live in an arena recycled
// through a free list, and are hashed by time into a wheel of buckets of
// fixed width, each bucket a (time, seq)-sorted singly-linked list. The pop
// order is exactly the (time, seq) order the original container/heap
// produced — the differential and golden tests in this package and
// internal/search pin that — but both enqueue and dequeue are O(1)
// amortized and allocation-free in steady state, which is what lets the
// simbench experiment push millions of events.
//
// Two representation choices matter for exactness:
//
//   - Each record stores its integer virtual bucket vb = floor(time/width),
//     computed once at enqueue. All eligibility checks during the scan are
//     integer compares against curVB, so no incremental floating-point
//     accumulation can ever disagree with the hash that placed the record.
//   - Timestamps are nonnegative (Sim enforces this), so floor is plain
//     int64 truncation.

const (
	// calInitBuckets is the wheel size of a fresh queue; resizing keeps the
	// bucket count within [count/2, 2·count] of the pending-event count.
	calInitBuckets = 16
	// calInitWidth is the initial bucket width in virtual seconds; resizes
	// re-estimate it from the pending events' spread.
	calInitWidth = 1.0
	// calMinWidth bounds the re-estimated width away from zero so virtual
	// bucket numbers stay far from int64 overflow.
	calMinWidth = 1e-6
	// calNone is the nil arena index.
	calNone = int32(-1)
)

// eventRec is one scheduled event in the arena. next links the record into
// its bucket's sorted list while queued and into the free list once popped.
type eventRec struct {
	time float64
	seq  int64
	vb   int64
	next int32
	h    Handler
}

// calQueue is the calendar queue. The zero value is ready to use; the
// wheel is built on first push.
type calQueue struct {
	arena   []eventRec
	free    int32 // head of the free list (calNone when empty)
	buckets []int32
	width   float64
	curVB   int64 // scan position: no pending event has vb < curVB
	count   int
}

// alloc returns a fresh arena index, recycling the free list first.
func (q *calQueue) alloc() int32 {
	if q.free != calNone {
		idx := q.free
		q.free = q.arena[idx].next
		return idx
	}
	q.arena = append(q.arena, eventRec{})
	return int32(len(q.arena) - 1)
}

// release returns a record to the free list, dropping its callback so the
// arena never retains dead closures.
func (q *calQueue) release(idx int32) {
	r := &q.arena[idx]
	r.h = nil
	r.next = q.free
	q.free = idx
}

// push enqueues an event. Times must be nonnegative; seq values are unique
// and increasing, so (time, seq) is a total order.
func (q *calQueue) push(t float64, seq int64, h Handler) {
	if q.buckets == nil {
		q.buckets = make([]int32, calInitBuckets)
		for b := range q.buckets {
			q.buckets[b] = calNone
		}
		q.width = calInitWidth
		q.free = calNone
	}
	idx := q.alloc()
	r := &q.arena[idx]
	r.time, r.seq, r.h = t, seq, h
	q.insert(idx)
	q.count++
	if q.count > 2*len(q.buckets) {
		q.resize(2 * len(q.buckets))
	}
}

// insert computes the record's virtual bucket under the current width and
// splices it into its physical bucket's (time, seq)-sorted list. A record
// earlier than the scan position rewinds curVB — that is how an event
// scheduled "in the past" relative to already-popped wheel progress (e.g. a
// resume replay racing a far-future fault) stays eligible.
func (q *calQueue) insert(idx int32) {
	r := &q.arena[idx]
	vb := int64(r.time / q.width)
	r.vb = vb
	if vb < q.curVB {
		q.curVB = vb
	}
	b := vb % int64(len(q.buckets))
	prev := calNone
	cur := q.buckets[b]
	for cur != calNone {
		c := &q.arena[cur]
		if r.time < c.time || (r.time == c.time && r.seq < c.seq) {
			break
		}
		prev = cur
		cur = c.next
	}
	r.next = cur
	if prev == calNone {
		q.buckets[b] = idx
	} else {
		q.arena[prev].next = idx
	}
}

// scan locates the earliest pending event and returns its arena index. It
// advances curVB past empty virtual buckets (persisting the progress so a
// following pop restarts at the hit) and, after a fruitless full wrap of
// the wheel, falls back to a direct search over the bucket heads — the
// standard calendar-queue escape when every pending event lies in the
// sparse far future. Within a physical bucket the head has the minimum
// (time, seq), and same-time events always share a virtual bucket, so the
// first head matching the scanned vb — or the minimum head in the direct
// search — is the global minimum.
func (q *calQueue) scan() (int32, bool) {
	if q.count == 0 {
		return calNone, false
	}
	nb := int64(len(q.buckets))
	for i := int64(0); i < nb; i++ {
		vb := q.curVB + i
		head := q.buckets[vb%nb]
		if head != calNone && q.arena[head].vb == vb {
			q.curVB = vb
			return head, true
		}
	}
	best := calNone
	for b := range q.buckets {
		head := q.buckets[b]
		if head == calNone {
			continue
		}
		if best == calNone {
			best = head
			continue
		}
		hr, br := &q.arena[head], &q.arena[best]
		if hr.time < br.time || (hr.time == br.time && hr.seq < br.seq) {
			best = head
		}
	}
	q.curVB = q.arena[best].vb
	return best, true
}

// peekTime returns the earliest pending fire time.
func (q *calQueue) peekTime() (float64, bool) {
	idx, ok := q.scan()
	if !ok {
		return 0, false
	}
	return q.arena[idx].time, true
}

// pop dequeues the earliest event in exact (time, seq) order.
func (q *calQueue) pop() (h Handler, t float64, ok bool) {
	idx, found := q.scan()
	if !found {
		return nil, 0, false
	}
	r := &q.arena[idx]
	q.buckets[r.vb%int64(len(q.buckets))] = r.next
	h, t = r.h, r.time
	q.release(idx)
	q.count--
	if nb := len(q.buckets); nb > calInitBuckets && q.count < nb/2 && q.count > 0 {
		q.resize(nb / 2)
	}
	return h, t, true
}

// pending lists every queued event, in bucket order, without touching the
// queue.
func (q *calQueue) pending() []Event {
	events := make([]Event, 0, q.count)
	for _, head := range q.buckets {
		for cur := head; cur != calNone; cur = q.arena[cur].next {
			r := &q.arena[cur]
			events = append(events, Event{Time: r.time, Seq: r.seq, Handler: r.h})
		}
	}
	return events
}

// resize re-buckets every pending event into newNB buckets, re-estimating
// the bucket width as twice the average gap of the pending set — a pure
// function of the pending events, so resizing is deterministic. Resize
// allocates; steady-state workloads whose pending count stays within the
// [nb/2, 2·nb] hysteresis band never trigger it.
func (q *calQueue) resize(newNB int) {
	idxs := make([]int32, 0, q.count)
	tmin, tmax := math.Inf(1), math.Inf(-1)
	for b := range q.buckets {
		for cur := q.buckets[b]; cur != calNone; {
			next := q.arena[cur].next
			idxs = append(idxs, cur)
			t := q.arena[cur].time
			if t < tmin {
				tmin = t
			}
			if t > tmax {
				tmax = t
			}
			cur = next
		}
	}
	if spread := tmax - tmin; spread > 0 {
		w := 2 * spread / float64(q.count)
		if w < calMinWidth {
			w = calMinWidth
		}
		q.width = w
	}
	if cap(q.buckets) >= newNB {
		q.buckets = q.buckets[:newNB]
	} else {
		q.buckets = make([]int32, newNB)
	}
	for b := range q.buckets {
		q.buckets[b] = calNone
	}
	q.curVB = math.MaxInt64
	for _, idx := range idxs {
		q.insert(idx)
	}
}
