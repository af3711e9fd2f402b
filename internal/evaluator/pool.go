package evaluator

import "fmt"

// This file is the one submit pipeline's back half (DESIGN.md §5): every
// estimation is a future — started by start, joined by resolve — and the
// concurrent-training worker pool is just the futures that run on their own
// goroutine. The virtual machine is untouched by it: Submit starts the
// estimation and the completion event already on the simulated timeline
// joins it, so every mutation of shared state — cache writes, trace events,
// Log appends — still happens in exact virtual-time order. Each estimation
// is self-contained (its RNG stream is derived synchronously in Submit
// order; it reads only immutable evaluator state), which is why overlapping
// them cannot move a single bit of any result.

// future is one reward estimation's pending shaped reward.
type future struct {
	done   chan struct{} // nil for an inline future, which is born complete
	reward float64       // valid once done is closed (or nil)
}

// start runs rec's estimation as a future. With the pool off, or with a
// reward source (a table lookup is instant on the host, so the pool would
// have nothing to overlap), it runs inline and is resolved on the spot — no
// channel, no goroutine, and no observer ever sees the optimistic cache
// entry of a diverged estimation: the exact serial machine. Otherwise it
// runs as a bounded goroutine; the semaphore is acquired inside it, so start
// never blocks the simulation loop, and in-flight futures are naturally
// bounded by the node count.
func (e *Evaluator) start(rec *inflightRecord, estimate func() float64) {
	if e.sem == nil || e.src != nil {
		rec.fut = &future{reward: estimate()}
		e.resolve(rec)
		return
	}
	fut := &future{done: make(chan struct{})}
	rec.fut = fut
	go func() {
		defer close(fut.done)
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		fut.reward = estimate()
	}()
}

// resolve joins a record's pending future and makes the one cache/failure
// decision of the pipeline: a diverged estimation (NaN/Inf reward) must
// surface as a failed evaluation, not poison the agent's policy update or
// the cache, so the submit-time cache insert is undone before anyone
// observes it. The virtual task still runs, so timing dynamics are
// unchanged. It is only called from Submit itself (inline futures) and from
// virtual-time callbacks — job completion, a duplicate submission hitting
// the optimistic cache entry, or a checkpoint drain — so shared state still
// mutates in virtual-time order. Records without a future (already
// resolved, or restored from a checkpoint) no-op.
func (e *Evaluator) resolve(rec *inflightRecord) {
	if rec == nil || rec.fut == nil {
		return
	}
	fut := rec.fut
	rec.fut = nil
	if fut.done != nil {
		<-fut.done
	}
	res := rec.res
	res.Reward = fut.reward
	if !isFinite(res.Reward) {
		res.Failed = true
		res.Err = fmt.Sprintf("evaluator: non-finite reward %g", fut.reward)
		res.Reward = 0
		if cache := e.caches[rec.cacheID]; cache[res.Key] == res {
			delete(cache, res.Key)
		}
		rec.inCache = false
	}
}

// pendingRecord finds the in-flight record owning res, if any. The scan is
// bounded by the node count, so it is cheap; it only runs on cache hits
// while the pool is enabled.
func (e *Evaluator) pendingRecord(res *Result) *inflightRecord {
	for _, rec := range e.inflight {
		if rec.res == res {
			return rec
		}
	}
	return nil
}

// drain resolves every pending future. CaptureState calls it so a
// checkpoint never serializes a half-trained result: after the drain the
// snapshot is byte-identical to the serial machine's at the same cut.
func (e *Evaluator) drain() {
	for _, rec := range e.inflight {
		e.resolve(rec)
	}
}
