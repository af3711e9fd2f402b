package nasbench

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// inOrder computes units from..to-1 with up to runtime.GOMAXPROCS(0) calls of
// work in flight, and hands each result to commit in index order on the
// calling goroutine. It is how BuildOrLoad and RunTournament use every core
// while journaling exactly as their serial loops did: commit (the WAL
// append) sees the same units in the same order at any width, so completion
// order — host wall-clock order — decides nothing. The first failure by
// index is returned, as the serial loop would return it, and nothing after
// it commits; a commit error stops new launches; a panic in work is raised
// again here when its index comes up, as its text and its goroutine's stack.
// No goroutine outlives the call. At GOMAXPROCS 1 a unit starts only after
// its predecessor commits: the serial loop itself.
func inOrder[R any](from, to int, work func(i int) (R, error), commit func(r R) error) error {
	type outcome struct {
		r        R
		err      error
		panicked bool
		p        any
	}
	width := runtime.GOMAXPROCS(0)
	var inflight []chan outcome // units next, next+1, … in index order
	defer func() {
		for _, c := range inflight {
			<-c
		}
	}()
	launched := from
	for next := from; next < to; next++ {
		for ; launched < to && launched-next < width; launched++ {
			c := make(chan outcome, 1)
			inflight = append(inflight, c)
			go func(i int) {
				o := outcome{panicked: true}
				defer func() {
					if o.panicked {
						o.p = fmt.Sprintf("%v\n%s", recover(), debug.Stack())
					}
					c <- o
				}()
				o.r, o.err = work(i)
				o.panicked = false
			}(launched)
		}
		o := <-inflight[0]
		inflight = inflight[1:]
		if o.panicked {
			panic(o.p)
		}
		if o.err != nil {
			return o.err
		}
		if err := commit(o.r); err != nil {
			return err
		}
	}
	return nil
}
