// Package hpc simulates the high-performance-computing substrate of the
// paper's experiments: the Theta supercomputer's KNL compute nodes, the
// Cooley cluster's K80 GPUs, and the discrete-event machinery that lets the
// NAS infrastructure run against a virtual wall clock.
//
// The paper's scaling study (utilization curves, synchronous-vs-asynchronous
// behaviour, timeout effects) is driven by task *durations* and scheduling
// dynamics, not by hardware micro-detail. This package therefore provides:
//
//   - Sim, a deterministic discrete-event simulator (virtual clock + ordered
//     event queue) that the Balsam workflow simulation, the cluster model,
//     and the search agents all run on — and the one record of what is
//     pending: a checkpoint reads Sim.Pending, nothing keeps a copy;
//   - Device models for KNL nodes and K80 GPUs with effective training
//     throughputs calibrated against the paper's reported baseline training
//     times (§5: the manually designed Combo network trains in 2215.13 s on
//     a KNL node and 705.26 s on a K80 GPU);
//   - a cost model translating an architecture's analytic FLOP count into
//     training/validation durations, including the 10-minute reward-
//     estimation timeout.
package hpc

import (
	"fmt"
	"sort"

	"nasgo/internal/trace"
)

// Handler is the one form a queued event takes: Fire runs when the simulator
// reaches the event. Components on the steady-state hot path implement it on
// a pooled record (balsam's jobEvent free list) or on a value they hold
// anyway (a search agent, a ps delivery), so the schedule→dispatch→complete
// cycle allocates nothing (balsam's TestShortSimAllocs pins it) — and so a
// checkpoint can recognise its own events in Pending by their type. Plain
// closures handed to At are wrapped in funcHandler.
type Handler interface{ Fire() }

// funcHandler adapts a closure to Handler (a func value is pointer-shaped,
// so the conversion does not allocate).
type funcHandler func()

func (f funcHandler) Fire() { f() }

// Event is one queued event: its absolute fire time, its sequence number
// (which orders same-time events) and what fires.
type Event struct {
	Time    float64
	Seq     int64
	Handler Handler
}

// Sim is a single-threaded discrete-event simulator. Time is in seconds.
// All callbacks run on the caller's goroutine inside Run; scheduling from
// within a callback is the normal way processes continue.
//
// Events are ordered by (fire time, sequence number): seq breaks time ties
// FIFO, so the order is total and simulations are deterministic. The queue
// (queue.go, a binary heap) pops exactly the sequence any correct priority
// queue would; the differential tests here and the golden traces in
// internal/search pin it. Checkpoints read the frontier with Pending and hand
// it back to Resume — never queue internals.
type Sim struct {
	now   float64
	seq   int64
	queue eventQueue
	rec   *trace.Recorder
}

// NewSim returns a simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// NewSimAt returns a simulator whose clock starts at the given virtual
// time — the entry point for resuming a checkpointed simulation.
func NewSimAt(now float64) *Sim { return &Sim{now: now} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// SetRecorder attaches a trace recorder (nil disables tracing, the
// default). The simulator emits one CatSim dispatch event per processed
// event and hands the recorder its clock, so every component sharing this
// simulator stamps events with the same virtual time base. Recording never
// alters scheduling: a nil recorder leaves the machine bit-for-bit
// identical.
func (s *Sim) SetRecorder(rec *trace.Recorder) {
	s.rec = rec
	rec.AttachClock(s.Now)
}

// Recorder returns the attached trace recorder (possibly nil — the
// returned recorder is nil-safe either way). Components running on this
// simulator emit through it so the whole machine shares one trace and one
// clock.
func (s *Sim) Recorder() *trace.Recorder { return s.rec }

// At schedules fn to run after delay seconds of virtual time. Negative
// delays panic: an event cannot fire in the past.
func (s *Sim) At(delay float64, fn func()) {
	s.AtHandlerE(delay, funcHandler(fn))
}

// AtHandlerE schedules h.Fire() after delay seconds of virtual time; Pending
// says where the event sits.
func (s *Sim) AtHandlerE(delay float64, h Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("hpc: negative delay %g", delay))
	}
	s.seq++
	s.queue.push(s.now+delay, s.seq, h)
}

// AtTime schedules h.Fire() at the absolute virtual time t (which must not
// lie in the past). Unlike a delay of t-now, the fire time is installed
// exactly, with no floating-point round trip — a resumed event must fire at
// bit-for-bit the same instant it would have.
func (s *Sim) AtTime(t float64, h Handler) {
	if t < s.now {
		panic(fmt.Sprintf("hpc: AtTime %g before now %g", t, s.now))
	}
	s.seq++
	s.queue.push(t, s.seq, h)
}

// Step runs the next event, returning false when the queue is empty.
func (s *Sim) Step() bool {
	h, t, ok := s.queue.pop()
	if !ok {
		return false
	}
	if t < s.now {
		panic("hpc: event queue went backwards")
	}
	s.now = t
	s.rec.Emit(trace.Event{Cat: trace.CatSim, Name: trace.EvDispatch, Node: trace.None, Agent: trace.None})
	h.Fire()
	return true
}

// Run processes events until the queue is empty or virtual time would
// exceed until (events beyond the horizon stay queued; the clock advances
// to exactly until). It returns the number of events processed.
func (s *Sim) Run(until float64) int {
	n := 0
	for {
		next, ok := s.queue.peekTime()
		if !ok {
			break
		}
		if next > until {
			s.now = until
			return n
		}
		s.Step()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunUntil processes events with fire time ≤ until and reports whether the
// queue drained. Unlike Run it never advances the clock past the last
// processed event, so a drained simulation ends at exactly the same virtual
// time whether or not a horizon was supplied — the invariant that makes a
// walltime-chained search log byte-identical to an uninterrupted one.
func (s *Sim) RunUntil(until float64) bool {
	for {
		next, ok := s.queue.peekTime()
		if !ok {
			return true
		}
		if next > until {
			return false
		}
		s.Step()
	}
}

// RunAll processes every queued event regardless of horizon.
func (s *Sim) RunAll() int {
	n := 0
	for s.Step() {
		n++
	}
	return n
}

// Pending returns every queued event in (Time, Seq) order — the order they
// will fire in — without touching the queue. It is the one reader of "what
// is pending" a checkpoint has: components never record where their events
// sit.
func (s *Sim) Pending() []Event {
	events := s.queue.pending()
	sortEvents(events)
	return events
}

// Resume re-enqueues a captured event frontier in (Time, Seq) order at the
// events' exact fire times. Because a fresh simulator assigns strictly
// increasing sequence numbers, the re-enqueued events tie-break among
// themselves — and against everything scheduled later — exactly as they
// did in the original run.
func (s *Sim) Resume(events []Event) {
	sortEvents(events)
	for _, ev := range events {
		s.AtTime(ev.Time, ev.Handler)
	}
}

func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Seq < events[j].Seq
	})
}
