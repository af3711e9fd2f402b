package evaluator

import (
	"fmt"
	"runtime/debug"

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

// future is one pooled reward estimation's pending shaped reward, or the
// panic that ended it.
type future struct {
	done   chan struct{}
	reward float64 // valid once done is closed
	panic  any     // non-nil if the estimation panicked
}

// estimate shapes an estimation's reward; a panic in it is returned as p, its
// value's text and then the stack of the goroutine that raised it.
func (e *Evaluator) estimate(metric func() float64, stats space.ArchStats) (reward float64, p any) {
	defer func() {
		if v := recover(); v != nil {
			p = fmt.Sprintf("%v\n%s", v, debug.Stack())
		}
	}()
	return e.shapeReward(metric(), stats), nil
}

// start runs rec's estimation, metric shaped by stats. With the pool off, or
// with a reward source (a table lookup is instant on the host, so the pool
// would have nothing to overlap), it runs inline and is settled on the spot —
// no future, no goroutine, and no observer ever sees the optimistic cache
// entry of a diverged estimation: the exact serial machine. Otherwise it runs
// as a future on a bounded goroutine; the semaphore is acquired inside it, so
// start never blocks the simulation loop, and in-flight futures are naturally
// bounded by the node count. A panic is raised on the simulation goroutine,
// a pooled one by resolve, rather than left to kill the process.
func (e *Evaluator) start(rec *inflightRecord, metric func() float64, stats space.ArchStats) {
	if e.sem == nil || e.src != nil {
		reward, p := e.estimate(metric, stats)
		if p != nil {
			panic(p)
		}
		e.settle(rec, reward)
		return
	}
	fut := &future{done: make(chan struct{})}
	rec.fut = fut
	go func() {
		defer close(fut.done)
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		fut.reward, fut.panic = e.estimate(metric, stats)
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
	if fut.panic != nil {
		panic(fut.panic)
	}
	e.settle(rec, fut.reward)
}

// settle reveals an estimation's shaped reward. A diverged estimation
// (NaN/Inf reward) must surface as a failed evaluation, not poison the
// agent's policy update or the cache, so it fails before anyone observes
// it. The virtual task still runs, so timing dynamics are unchanged.
func (e *Evaluator) settle(rec *inflightRecord, reward float64) {
	rec.res.Reward = reward
	if !isFinite(reward) {
		e.fail(rec, fmt.Sprintf("evaluator: non-finite reward %g", reward))
	}
}

// fail is the pipeline's one cache/failure decision: it marks rec's result
// Failed with msg and reward 0, and evicts its cache entry, so a failed
// estimation is never served as a hit. settle (a diverged estimation) and
// jobOnDone (every attempt killed) call it.
func (e *Evaluator) fail(rec *inflightRecord, msg string) {
	res := rec.res
	res.Failed = true
	res.Err = msg
	res.Reward = 0
	if cache := e.caches[rec.cacheID]; cache[res.Key] == res {
		delete(cache, res.Key)
	}
	rec.inCache = false
}

// join waits for a cache hit's entry if it is still training on the worker
// pool (the optimistic insert) and settles it, before Submit copies it. The
// join can evict a diverged training — then the submission is a miss,
// exactly as with an inline estimation, which was evicted before its Submit
// returned. The scan is bounded by the node count; with the pool off no
// entry is pending.
func (e *Evaluator) join(res *Result) {
	if e.sem == nil {
		return
	}
	for _, rec := range e.inflight {
		if rec.res == res {
			e.resolve(rec)
			return
		}
	}
}

// drain resolves every pending future. CaptureState calls it so a
// checkpoint never serializes a half-trained result: after the drain the
// snapshot is byte-identical to the serial machine's at the same cut.
func (e *Evaluator) drain() {
	for _, rec := range e.inflight {
		e.resolve(rec)
	}
}
