package hpc

import (
	"testing"

	"nasgo/internal/trace"
)

// fireLog is a minimal Handler recording its fire times.
type fireLog struct {
	sim   *Sim
	times []float64
}

func (f *fireLog) Fire() { f.times = append(f.times, f.sim.Now()) }

// TestSimSchedulingAPIs drives every scheduling entry point — At,
// AtHandlerE, AtTime — on one simulator and checks they interleave in exact
// (time, seq) order, that AtHandlerE reports and Pending lists the
// (time, seq) each event actually fires with, and that a recorder attached
// via SetRecorder sees one CatSim dispatch per event stamped with the
// virtual clock.
func TestSimSchedulingAPIs(t *testing.T) {
	s := NewSim()
	rec := trace.NewRecorder(64)
	s.SetRecorder(rec)
	if s.Recorder() != rec {
		t.Fatal("Recorder() did not return the attached recorder")
	}

	var order []string
	h := &fireLog{sim: s}
	s.At(4, func() { order = append(order, "at") })
	s.At(2, func() { order = append(order, "at2") })
	s.AtTime(3, funcHandler(func() { order = append(order, "attime") }))
	ht, hs := s.AtHandlerE(1, h)
	if ht != 1 || hs != 4 {
		t.Fatalf("AtHandlerE returned (%g, %d), want (1, 4)", ht, hs)
	}
	s.AtTime(3, h)
	pending := s.Pending()
	wantPending := []Event{{1, 4, h}, {Time: 2, Seq: 2}, {Time: 3, Seq: 3}, {3, 5, h}, {Time: 4, Seq: 1}}
	if len(pending) != len(wantPending) || s.queue.count != len(wantPending) {
		t.Fatalf("Pending has %d events (queue %d), want %d", len(pending), s.queue.count, len(wantPending))
	}
	for i, w := range wantPending {
		ev := pending[i]
		if ev.Time != w.Time || ev.Seq != w.Seq || (w.Handler != nil && ev.Handler != w.Handler) {
			t.Fatalf("Pending[%d] = (%g, %d, %T), want (%g, %d)", i, ev.Time, ev.Seq, ev.Handler, w.Time, w.Seq)
		}
	}

	if !s.RunUntil(10) {
		t.Fatal("RunUntil(10) should drain the queue")
	}
	if s.Now() != 4 {
		t.Fatalf("RunUntil left clock at %g, want 4 (last event, not horizon)", s.Now())
	}
	want := []string{"at2", "attime", "at"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("closure order %v, want %v", order, want)
		}
	}
	if len(h.times) != 2 || h.times[0] != 1 || h.times[1] != 3 {
		t.Fatalf("handler fired at %v, want [1 3]", h.times)
	}
	events := rec.Events()
	if len(events) != 5 {
		t.Fatalf("recorder saw %d events, want 5", len(events))
	}
	dispatchAt := []float64{1, 2, 3, 3, 4}
	for i, ev := range events {
		if ev.Cat != trace.CatSim || ev.Name != trace.EvDispatch || ev.Time != dispatchAt[i] {
			t.Fatalf("event %d = %+v, want CatSim dispatch at t=%g", i, ev, dispatchAt[i])
		}
	}
}

// TestSimRunUntilPartial pins the not-drained contract: RunUntil stops at
// the horizon without advancing the clock past the last processed event.
func TestSimRunUntilPartial(t *testing.T) {
	s := NewSim()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(8, func() { fired++ })
	if s.RunUntil(5) {
		t.Fatal("RunUntil(5) reported drained with an event at t=8 pending")
	}
	if fired != 1 || s.Now() != 1 || s.queue.count != 1 {
		t.Fatalf("after RunUntil(5): fired=%d now=%g pending=%d, want 1/1/1", fired, s.Now(), s.queue.count)
	}
}

// TestResumeReplaysInOrder pins the checkpoint-resume contract: a frontier
// of (Time, Seq, Handler) events handed to Resume in any order is
// re-enqueued on a NewSimAt simulator so that same-time events keep their
// original relative order, interleaved correctly with newly scheduled work.
func TestResumeReplaysInOrder(t *testing.T) {
	s := NewSimAt(100)
	if s.Now() != 100 {
		t.Fatalf("NewSimAt clock = %g, want 100", s.Now())
	}
	var order []int
	mk := func(id int) Handler { return funcHandler(func() { order = append(order, id) }) }
	// Deliberately unsorted, with a same-time tie decided by original seq.
	s.Resume([]Event{
		{Time: 150, Seq: 9, Handler: mk(2)},
		{Time: 120, Seq: 4, Handler: mk(0)},
		{Time: 150, Seq: 7, Handler: mk(1)},
	})
	s.AtTime(150, mk(3)) // scheduled after the replay: fires last of the 150s
	s.RunAll()
	for i, w := range []int{0, 1, 2, 3} {
		if order[i] != w {
			t.Fatalf("resume order %v, want [0 1 2 3]", order)
		}
	}
	if s.Now() != 150 {
		t.Fatalf("clock = %g, want 150", s.Now())
	}
}

// TestSimHandlerPanics covers the past-scheduling guards of the Handler
// entry points, mirroring TestSimNegativeDelayPanics.
func TestSimHandlerPanics(t *testing.T) {
	h := &fireLog{}
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := NewSimAt(10)
	expectPanic("AtHandlerE negative delay", func() { s.AtHandlerE(-1, h) })
	expectPanic("AtTime in the past", func() { s.AtTime(5, h) })
}
