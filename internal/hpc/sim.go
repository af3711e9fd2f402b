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
//     and the search agents all run on;
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

// Handler is a pre-bound event callback: components that schedule events in
// their steady-state hot path implement Fire on a pooled record and pass it
// to AtHandlerE/AtTimeHandler, instead of allocating a fresh closure per
// event the way At/AtE do. Balsam's job completion and requeue events are
// the canonical users (its jobEvent free list); together with the queue's
// own record free list this keeps the schedule→dispatch→complete cycle at
// zero allocations per event (balsam's TestShortSimAllocs pins it).
type Handler interface{ Fire() }

// Sim is a single-threaded discrete-event simulator. Time is in seconds.
// All callbacks run on the caller's goroutine inside Run; scheduling from
// within a callback is the normal way processes continue.
//
// Events are ordered by (fire time, sequence number): seq breaks time ties
// FIFO, so simulations are deterministic. The queue is a calendar queue
// (queue.go) whose pop order is pinned — by differential tests here and
// golden traces in internal/search — to be exactly the order the original
// container/heap implementation produced, so replacing the engine is
// invisible to every layer above, including checkpoints: pending events are
// captured per-component as (time, seq) pairs and replayed through
// ScheduleResume, never as queue internals.
type Sim struct {
	now   float64
	seq   int64
	queue calQueue
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
	if delay < 0 {
		panic(fmt.Sprintf("hpc: negative delay %g", delay))
	}
	s.seq++
	s.queue.push(s.now+delay, s.seq, fn, nil)
}

// AtE schedules like At and additionally returns the event's absolute fire
// time and sequence number. Components that checkpoint their pending events
// record both: the time says when to refire on resume, and the sequence
// number preserves the original relative order of same-time events.
func (s *Sim) AtE(delay float64, fn func()) (time float64, seq int64) {
	if delay < 0 {
		panic(fmt.Sprintf("hpc: negative delay %g", delay))
	}
	s.seq++
	t := s.now + delay
	s.queue.push(t, s.seq, fn, nil)
	return t, s.seq
}

// AtHandlerE schedules h.Fire() after delay seconds of virtual time and
// returns the event's absolute fire time and sequence number — AtE without
// the per-event closure allocation, for components that pool their event
// records (see Handler).
func (s *Sim) AtHandlerE(delay float64, h Handler) (time float64, seq int64) {
	if delay < 0 {
		panic(fmt.Sprintf("hpc: negative delay %g", delay))
	}
	s.seq++
	t := s.now + delay
	s.queue.push(t, s.seq, nil, h)
	return t, s.seq
}

// AtTimeHandler schedules h.Fire() at the absolute virtual time t (which
// must not lie in the past) and returns the event's sequence number —
// AtTime for a pooled Handler record.
func (s *Sim) AtTimeHandler(t float64, h Handler) int64 {
	if t < s.now {
		panic(fmt.Sprintf("hpc: AtTimeHandler %g before now %g", t, s.now))
	}
	s.seq++
	s.queue.push(t, s.seq, nil, h)
	return s.seq
}

// AtTime schedules fn at the absolute virtual time t (which must not lie in
// the past) and returns the event's sequence number. Unlike At(t-now), the
// fire time is installed exactly, with no floating-point round trip — a
// resumed event must fire at bit-for-bit the same instant it would have.
func (s *Sim) AtTime(t float64, fn func()) int64 {
	if t < s.now {
		panic(fmt.Sprintf("hpc: AtTime %g before now %g", t, s.now))
	}
	s.seq++
	s.queue.push(t, s.seq, fn, nil)
	return s.seq
}

// Step runs the next event, returning false when the queue is empty.
func (s *Sim) Step() bool {
	fn, h, t, ok := s.queue.pop()
	if !ok {
		return false
	}
	if t < s.now {
		panic("hpc: event queue went backwards")
	}
	s.now = t
	s.rec.Emit(trace.Event{Cat: trace.CatSim, Name: trace.EvDispatch, Node: trace.None, Agent: trace.None})
	if fn != nil {
		fn()
	} else {
		h.Fire()
	}
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

// ResumeEvent is one pending event captured at a checkpoint cut: its
// absolute fire time, its sequence number in the original simulator (which
// encodes the relative order of same-time events), and a Schedule function
// that re-enqueues it — typically via AtTime — on the restored simulator.
type ResumeEvent struct {
	Time     float64
	Seq      int64
	Schedule func()
}

// ScheduleResume replays a captured event frontier: it sorts the events by
// (Time, Seq) and invokes each Schedule in that order. Because a fresh
// simulator assigns strictly increasing sequence numbers, the re-enqueued
// events tie-break among themselves — and against everything scheduled
// later — exactly as they did in the original run.
func ScheduleResume(events []ResumeEvent) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].Time != events[j].Time {
			return events[i].Time < events[j].Time
		}
		return events[i].Seq < events[j].Seq
	})
	for _, ev := range events {
		ev.Schedule()
	}
}
