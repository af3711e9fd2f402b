package hpc

import (
	"container/heap"
	"sort"
	"testing"

	"nasgo/internal/rng"
)

// refQueue is the retained naive container/heap event queue the calendar
// queue replaced — the differential oracle. It orders by (time, seq)
// exactly as the original Sim queue did.
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

// popCal pops the calendar queue and returns its (time, seq).
func popCal(t *testing.T, q *calQueue) (float64, int64) {
	t.Helper()
	pt, ok := q.peekTime()
	if !ok {
		t.Fatal("peekTime on non-empty queue failed")
	}
	idx, _ := q.scan()
	seq := q.arena[idx].seq
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
	return tm, seq
}

// checkPending compares the calendar queue's enumeration with the reference
// heap's contents as a (time, seq) multiset, and checks that enumerating
// left the queue's bookkeeping alone.
func checkPending(t *testing.T, q *calQueue, ref refQueue) {
	t.Helper()
	count, curVB := q.count, q.curVB
	got := q.pending()
	if q.count != count || q.curVB != curVB {
		t.Fatalf("pending() moved the queue: count %d→%d, curVB %d→%d", count, q.count, curVB, q.curVB)
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

// TestCalendarQueueDifferential drives the calendar queue and the heap
// reference through randomized schedule/pop workloads — same-
// timestamp bursts, far-future fault events, schedules in the past relative
// to the wheel's scan position — asserting identical pop order at every
// step, and at every 97th that pending() lists exactly the reference's
// contents. The push/pop imbalance walks the pending count across grow and
// shrink resize thresholds.
func TestCalendarQueueDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42, 1009} {
		r := rng.New(seed)
		var cal calQueue
		ref := &refQueue{}
		heap.Init(ref)
		var seq int64
		var lastPop float64

		push := func(tm float64) {
			seq++
			cal.push(tm, seq, nil)
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
					tm = lastPop * r.Float64() // in the past of the scan position
				default:
					tm = lastPop + r.Float64()*100
				}
				push(tm)
			default:
				if cal.count == 0 {
					if ref.Len() != 0 {
						t.Fatalf("seed %d: cal empty, ref has %d", seed, ref.Len())
					}
					continue
				}
				ct, cs := popCal(t, &cal)
				re := heap.Pop(ref).(refEvent)
				if ct != re.time || cs != re.seq {
					t.Fatalf("seed %d op %d: cal popped (%g, %d), ref popped (%g, %d)",
						seed, op, ct, cs, re.time, re.seq)
				}
				lastPop = ct
			}
			if cal.count != ref.Len() {
				t.Fatalf("seed %d op %d: cal len %d != ref len %d", seed, op, cal.count, ref.Len())
			}
			if op%97 == 0 {
				checkPending(t, &cal, *ref)
			}
		}

		// Drain: the tails must agree event for event.
		for ref.Len() > 0 {
			ct, cs := popCal(t, &cal)
			re := heap.Pop(ref).(refEvent)
			if ct != re.time || cs != re.seq {
				t.Fatalf("seed %d drain: cal (%g, %d) != ref (%g, %d)", seed, ct, cs, re.time, re.seq)
			}
		}
		if cal.count != 0 {
			t.Fatalf("seed %d: cal not empty after drain: %d", seed, cal.count)
		}
	}
}

// TestCalendarQueueFarFuture pins the direct-search fallback: with every
// pending event beyond a full wheel wrap, pops still come out in exact
// (time, seq) order.
func TestCalendarQueueFarFuture(t *testing.T) {
	var q calQueue
	times := []float64{9e6, 3e6, 9e6, 6e6, 3e6}
	for i, tm := range times {
		q.push(tm, int64(i+1), nil)
	}
	want := []struct {
		tm  float64
		seq int64
	}{{3e6, 2}, {3e6, 5}, {6e6, 4}, {9e6, 1}, {9e6, 3}}
	for _, w := range want {
		tm, seq := popCal(t, &q)
		if tm != w.tm || seq != w.seq {
			t.Fatalf("popped (%g, %d), want (%g, %d)", tm, seq, w.tm, w.seq)
		}
	}
	if _, _, ok := q.pop(); ok {
		t.Fatal("pop on empty queue succeeded")
	}
}

// TestCalendarQueueResizeKeepsOrder forces several grow and shrink resizes
// and checks the drain order against a sorted oracle.
func TestCalendarQueueResizeKeepsOrder(t *testing.T) {
	var q calQueue
	ref := &refQueue{}
	heap.Init(ref)
	// 1000 pushes: way past 2*16, so the wheel grows repeatedly and the
	// width is re-estimated from the spread each time.
	r := rng.New(99)
	for i := int64(1); i <= 1000; i++ {
		tm := r.Float64() * 5000
		q.push(tm, i, nil)
		heap.Push(ref, refEvent{time: tm, seq: i})
	}
	// Drain completely: crosses every shrink threshold back down.
	prevT, prevS := -1.0, int64(-1)
	for ref.Len() > 0 {
		ct, cs := popCal(t, &q)
		re := heap.Pop(ref).(refEvent)
		if ct != re.time || cs != re.seq {
			t.Fatalf("drain: cal (%g, %d) != ref (%g, %d)", ct, cs, re.time, re.seq)
		}
		if ct < prevT || (ct == prevT && cs <= prevS) {
			t.Fatalf("pop order went backwards: (%g, %d) after (%g, %d)", ct, cs, prevT, prevS)
		}
		prevT, prevS = ct, cs
	}
}
