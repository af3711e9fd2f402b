package hpc

import (
	"container/heap"
	"sort"
	"testing"

	"nasgo/internal/rng"
)

// refQueue is a container/heap event queue ordering by (time, seq) — the
// differential oracle for eventQueue.
type refEvent struct {
	time float64
	seq  int64
}

type refQueue []refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x interface{}) { *q = append(*q, x.(refEvent)) }
func (q *refQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// popQueue pops the event queue and returns its (time, seq).
func popQueue(t *testing.T, q *eventQueue) (float64, int64) {
	t.Helper()
	pt, ok := q.peekTime()
	if !ok {
		t.Fatal("peekTime on non-empty queue failed")
	}
	seq := (*q)[0].Seq
	h, tm, ok := q.pop()
	if !ok {
		t.Fatal("pop on non-empty queue failed")
	}
	if h != nil {
		t.Fatal("test events carry no callbacks")
	}
	if tm != pt {
		t.Fatalf("peekTime %g disagrees with popped time %g", pt, tm)
	}
	if n := len(*q); (*q)[:n+1][n] != (Event{}) {
		t.Fatal("pop left the vacated slot set")
	}
	return tm, seq
}

// checkPending compares the queue's enumeration with the reference heap's
// contents as a (time, seq) multiset, and checks that enumerating left the
// heap slice unchanged.
func checkPending(t *testing.T, q *eventQueue, ref refQueue) {
	t.Helper()
	before := append(eventQueue(nil), *q...)
	got := q.pending()
	if len(*q) != len(before) {
		t.Fatalf("pending() moved the queue: len %d→%d", len(before), len(*q))
	}
	for i, e := range before {
		if (*q)[i] != e {
			t.Fatalf("pending() moved the queue: slot %d (%g, %d)→(%g, %d)", i, e.Time, e.Seq, (*q)[i].Time, (*q)[i].Seq)
		}
	}
	if len(got) != len(ref) {
		t.Fatalf("pending() lists %d events, ref holds %d", len(got), len(ref))
	}
	sortEvents(got)
	want := append(refQueue(nil), ref...)
	sort.Sort(want)
	for i, w := range want {
		if got[i].Time != w.time || got[i].Seq != w.seq {
			t.Fatalf("pending()[%d] = (%g, %d), ref has (%g, %d)", i, got[i].Time, got[i].Seq, w.time, w.seq)
		}
	}
}

// TestEventQueueDifferential drives the event queue and the heap reference
// through randomized schedule/pop workloads — same-timestamp bursts,
// far-future fault events, schedules in the past of the last pop —
// asserting identical pop order at every step, and at every 97th that
// pending() lists exactly the reference's contents. The push/pop imbalance
// lets the pending count grow into the thousands.
func TestEventQueueDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1009} {
		r := rng.New(seed)
		var q eventQueue
		ref := &refQueue{}
		heap.Init(ref)
		var seq int64
		var lastPop float64

		push := func(tm float64) {
			seq++
			q.push(tm, seq, nil)
			heap.Push(ref, refEvent{time: tm, seq: seq})
		}

		for op := 0; op < 20000; op++ {
			switch p := r.Float64(); {
			case p < 0.55:
				var tm float64
				switch r.Intn(6) {
				case 0:
					tm = lastPop // exactly at the frontier: same-timestamp pile-up
				case 1:
					tm = lastPop + float64(r.Intn(4)) // integer collisions: FIFO tie-breaks
				case 2:
					tm = lastPop + 1e5 + r.Float64()*1e6 // far-future fault events
				case 3:
					tm = lastPop * r.Float64() // in the past of the last pop
				default:
					tm = lastPop + r.Float64()*100
				}
				push(tm)
			default:
				if len(q) == 0 {
					if ref.Len() != 0 {
						t.Fatalf("seed %d: queue empty, ref has %d", seed, ref.Len())
					}
					continue
				}
				qt, qs := popQueue(t, &q)
				re := heap.Pop(ref).(refEvent)
				if qt != re.time || qs != re.seq {
					t.Fatalf("seed %d op %d: queue popped (%g, %d), ref popped (%g, %d)",
						seed, op, qt, qs, re.time, re.seq)
				}
				lastPop = qt
			}
			if len(q) != ref.Len() {
				t.Fatalf("seed %d op %d: queue len %d != ref len %d", seed, op, len(q), ref.Len())
			}
			if op%97 == 0 {
				checkPending(t, &q, *ref)
			}
		}

		// Drain: the tails must agree event for event.
		for ref.Len() > 0 {
			qt, qs := popQueue(t, &q)
			re := heap.Pop(ref).(refEvent)
			if qt != re.time || qs != re.seq {
				t.Fatalf("seed %d drain: queue (%g, %d) != ref (%g, %d)", seed, qt, qs, re.time, re.seq)
			}
		}
		if len(q) != 0 {
			t.Fatalf("seed %d: queue not empty after drain: %d", seed, len(q))
		}
	}
}
