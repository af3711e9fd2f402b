package evaluator

import (
	"fmt"

	"nasgo/internal/space"
)

// This file is the one submit pipeline's back half (DESIGN.md §5): start
// runs every estimation, inline or as a future that resolve joins, and settle
// decides its outcome; the concurrent-training worker pool is just the
// futures, which run on their own goroutine. The virtual machine is untouched
// by it: Submit starts the estimation and the completion event already on
// the simulated timeline joins it, so every mutation of shared state — cache
// writes, trace events, Log appends — still happens in exact virtual-time
// order. Each estimation is self-contained (its RNG stream is derived
// synchronously in Submit order; it reads only immutable evaluator state),
// which is why overlapping them cannot move a single bit of any result.

// future is one pooled reward estimation's pending shaped reward.
type future struct {
	done   chan struct{}
	reward float64 // valid once done is closed
}

// start runs rec's estimation, metric shaped by stats. With the pool off, or
// with a reward source (a table lookup is instant on the host, so the pool
// would have nothing to overlap), it runs inline and is settled on the spot —
// no future, no goroutine, and no observer ever sees the optimistic cache
// entry of a diverged estimation: the exact serial machine. Otherwise it runs
// as a future on a bounded goroutine; the semaphore is acquired inside it, so
// start never blocks the simulation loop, and in-flight futures are naturally
// bounded by the node count.
func (e *Evaluator) start(rec *inflightRecord, metric func() float64, stats space.ArchStats) {
	if e.sem == nil || e.src != nil {
		e.settle(rec, e.shapeReward(metric(), stats))
		return
	}
	fut := &future{done: make(chan struct{})}
	rec.fut = fut
	go func() {
		defer close(fut.done)
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		fut.reward = e.shapeReward(metric(), stats)
	}()
}

// resolve joins a record's pending future and settles it. It is only called
// from virtual-time callbacks — job completion, a duplicate submission
// hitting the optimistic cache entry, or a checkpoint drain — so shared state
// still mutates in virtual-time order. Records without a future (inline,
// already resolved, or restored from a checkpoint) no-op.
func (e *Evaluator) resolve(rec *inflightRecord) {
	if rec == nil || rec.fut == nil {
		return
	}
	fut := rec.fut
	rec.fut = nil
	<-fut.done
	e.settle(rec, fut.reward)
}

// settle makes the one cache/failure decision of the pipeline: a diverged
// estimation (NaN/Inf reward) must surface as a failed evaluation, not
// poison the agent's policy update or the cache, so the submit-time cache
// insert is undone before anyone observes it. The virtual task still runs,
// so timing dynamics are unchanged.
func (e *Evaluator) settle(rec *inflightRecord, reward float64) {
	res := rec.res
	res.Reward = reward
	if !isFinite(res.Reward) {
		res.Failed = true
		res.Err = fmt.Sprintf("evaluator: non-finite reward %g", reward)
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
