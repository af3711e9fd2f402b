package evaluator

import (
	"fmt"

	"nasgo/internal/hpc"
	"nasgo/internal/rng"
	"nasgo/internal/space"
)

// This file is the concurrent-training worker pool (DESIGN.md §10). The
// virtual machine is untouched by it: Submit starts the real scaled-down
// training as a future on the host and the completion event already on the
// simulated timeline joins it, so every mutation of shared state — cache
// writes, trace events, Log appends — still happens in exact virtual-time
// order. Each training is self-contained (its RNG stream is derived
// synchronously in Submit order; it reads only immutable evaluator state),
// which is why overlapping them cannot move a single bit of any result.

// future is one real training in flight on the worker pool.
type future struct {
	done   chan struct{}
	reward float64 // shaped reward; valid once done is closed
}

// launch starts the training as a bounded goroutine. The semaphore is
// acquired inside the goroutine, so launch never blocks the simulation
// loop; in-flight futures are naturally bounded by the node count.
func (e *Evaluator) launch(taskRand *rng.Rand, ir *space.ArchIR, plan hpc.RewardEstimate, stats space.ArchStats) *future {
	fut := &future{done: make(chan struct{})}
	go func() {
		defer close(fut.done)
		e.sem <- struct{}{}
		defer func() { <-e.sem }()
		fut.reward = e.shapeReward(e.trainReal(taskRand, ir, plan), stats)
	}()
	return fut
}

// resolve joins a record's pending future, applying the cache and failure
// decisions the serial machine makes inline at Submit. It is only called
// from virtual-time callbacks — job completion, a duplicate submission
// hitting the optimistic cache entry, or a checkpoint drain — so shared
// state still mutates in virtual-time order. Records without a future
// (serial path, already resolved, or restored from a checkpoint) no-op.
func (e *Evaluator) resolve(rec *inflightRecord) {
	if rec == nil || rec.fut == nil {
		return
	}
	fut := rec.fut
	rec.fut = nil
	<-fut.done
	res := rec.res
	res.Reward = fut.reward
	if !isFinite(res.Reward) {
		// The serial machine never caches a diverged (NaN/Inf) training; the
		// optimistic insert is undone here, before anyone observes it.
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
