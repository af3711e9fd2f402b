package nasbench

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nasgo/internal/fsim"
)

// inOrderWidth is the width the helper's tests force: wide enough that a
// later unit can finish before an earlier one.
const inOrderWidth = 4

// reversedWork returns a work function over units 0..to-1 under which the
// units of each aligned group of inOrderWidth finish last-first: unit i waits
// for unit i+1 to finish, except the last of its group. A group is launched
// whole before any of it commits, so this cannot deadlock at inOrderWidth; it
// records the order units finish in.
func reversedWork(to int, finished *[]int, mu *sync.Mutex) func(i int) (int, error) {
	done := make([]chan struct{}, to)
	for i := range done {
		done[i] = make(chan struct{})
	}
	return func(i int) (int, error) {
		if i%inOrderWidth != inOrderWidth-1 && i+1 < to {
			<-done[i+1]
		}
		mu.Lock()
		*finished = append(*finished, i)
		mu.Unlock()
		close(done[i])
		return i, nil
	}
}

func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestInOrderCommitsInIndexOrder: units finish last-first in every window,
// and still commit 0, 1, 2, … on the calling goroutine; at GOMAXPROCS 1 each
// unit starts only after its predecessor committed — the serial loop.
func TestInOrderCommitsInIndexOrder(t *testing.T) {
	withProcs(t, inOrderWidth)
	var mu sync.Mutex
	var finished, committed []int
	if err := inOrder(0, 10, reversedWork(10, &finished, &mu), func(r int) error {
		committed = append(committed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	if !reflect.DeepEqual(committed, want) {
		t.Fatalf("committed %v, want %v", committed, want)
	}
	if finished[0] != inOrderWidth-1 {
		t.Fatalf("units finished in %v: the adversarial order did not happen", finished)
	}

	runtime.GOMAXPROCS(1)
	var events []string
	if err := inOrder(0, 3, func(i int) (int, error) {
		mu.Lock()
		events = append(events, fmt.Sprint("work", i))
		mu.Unlock()
		return i, nil
	}, func(r int) error {
		mu.Lock()
		events = append(events, fmt.Sprint("commit", r))
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []string{"work0", "commit0", "work1", "commit1", "work2", "commit2"}; !reflect.DeepEqual(events, want) {
		t.Fatalf("GOMAXPROCS 1 ran %v, want the serial loop %v", events, want)
	}
}

// TestInOrderFirstErrorByIndexWins: unit 2 fails after unit 3 has already
// panicked and unit 1 is still running; the error of unit 2 is returned, as
// the serial loop would return it, units 0 and 1 commit and nothing after.
func TestInOrderFirstErrorByIndexWins(t *testing.T) {
	withProcs(t, inOrderWidth)
	errTwo := errors.New("unit 2 failed")
	threeDone, twoDone := make(chan struct{}), make(chan struct{})
	var started, ended atomic.Int32
	var committed []int
	err := inOrder(0, 8, func(i int) (int, error) {
		started.Add(1)
		defer ended.Add(1)
		switch i {
		case 1:
			<-twoDone
		case 2:
			<-threeDone
			close(twoDone)
			return 0, errTwo
		case 3:
			defer close(threeDone)
			panic("unit 3")
		}
		return i, nil
	}, func(r int) error {
		committed = append(committed, r)
		return nil
	})
	if err != errTwo {
		t.Fatalf("inOrder returned %v, want unit 2's error", err)
	}
	if !reflect.DeepEqual(committed, []int{0, 1}) {
		t.Fatalf("committed %v, want [0 1]", committed)
	}
	if s, e := started.Load(), ended.Load(); s != e {
		t.Fatalf("%d units started, %d ended before inOrder returned", s, e)
	}
}

// TestInOrderCommitErrorStopsLaunches: a commit error launches nothing more
// and returns only once the units in flight have finished.
func TestInOrderCommitErrorStopsLaunches(t *testing.T) {
	withProcs(t, inOrderWidth)
	errCommit := errors.New("journal full")
	release := make(chan struct{})
	var started atomic.Int32
	var finished [16]atomic.Bool
	err := inOrder(0, 16, func(i int) (int, error) {
		started.Add(1)
		if i >= 2 {
			<-release
		}
		finished[i].Store(true)
		return i, nil
	}, func(r int) error {
		if r == 1 {
			// Units 2..4 are released well after the error is returned: a
			// helper that did not wait for them would return first.
			go func() {
				time.Sleep(20 * time.Millisecond)
				close(release)
			}()
			return errCommit
		}
		return nil
	})
	if err != errCommit {
		t.Fatalf("inOrder returned %v, want the commit error", err)
	}
	// Units 0..3 were launched at the start and unit 4 when unit 0 committed.
	if got := started.Load(); got != 1+inOrderWidth {
		t.Fatalf("%d units started, want %d: a launch followed the commit error", got, 1+inOrderWidth)
	}
	for i := 0; i < 1+inOrderWidth; i++ {
		if !finished[i].Load() {
			t.Fatalf("unit %d was still running when inOrder returned", i)
		}
	}
}

// TestInOrderPanicReachesCaller: a panic in work is raised again on the
// calling goroutine with its value and the stack of the goroutine that
// raised it, after the units before it committed and the units after it
// finished.
func TestInOrderPanicReachesCaller(t *testing.T) {
	withProcs(t, inOrderWidth)
	var started, ended atomic.Int32
	var committed []int
	func() {
		defer func() {
			p := fmt.Sprint(recover())
			if !strings.HasPrefix(p, "unit 2\n") || !strings.Contains(p, "TestInOrderPanicReachesCaller.func") {
				t.Fatalf("recovered %q, want unit 2's panic and the stack of its goroutine", p)
			}
		}()
		inOrder(0, 8, func(i int) (int, error) {
			started.Add(1)
			defer ended.Add(1)
			if i == 2 {
				panic("unit 2")
			}
			return i, nil
		}, func(r int) error {
			committed = append(committed, r)
			return nil
		})
		t.Fatal("inOrder returned past a panicking unit")
	}()
	if !reflect.DeepEqual(committed, []int{0, 1}) {
		t.Fatalf("committed %v, want [0 1]", committed)
	}
	if s, e := started.Load(), ended.Load(); s != e {
		t.Fatalf("%d units started, %d ended before the panic left inOrder", s, e)
	}
}

// TestInOrderBoundsWork: exactly the units from..to-1 are computed, each
// once; an empty range computes nothing.
func TestInOrderBoundsWork(t *testing.T) {
	withProcs(t, inOrderWidth)
	var mu sync.Mutex
	calls := map[int]int{}
	var committed []int
	if err := inOrder(3, 10, func(i int) (int, error) {
		mu.Lock()
		calls[i]++
		mu.Unlock()
		return i, nil
	}, func(r int) error {
		committed = append(committed, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := map[int]int{3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1}; !reflect.DeepEqual(calls, want) {
		t.Fatalf("work calls %v, want %v", calls, want)
	}
	if !reflect.DeepEqual(committed, []int{3, 4, 5, 6, 7, 8, 9}) {
		t.Fatalf("committed %v", committed)
	}
	if err := inOrder(5, 5, func(int) (int, error) {
		t.Fatal("work called on an empty range")
		return 0, nil
	}, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// widthRun records one durable run at the given GOMAXPROCS: its tape and
// the tree digest of the directory it leaves.
func widthRun(t *testing.T, procs int, dir string, run func(fsys fsim.FS) error) ([]fsim.Op, string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	mem := fsim.NewMemFS()
	rec := fsim.NewRecordFS(mem)
	if err := run(rec); err != nil {
		t.Fatal(err)
	}
	return rec.Ops(), mem.TreeDigest(dir)
}

// TestShortBuildWidthInvariant: a table build at GOMAXPROCS 1 and at 8
// performs the same filesystem operations, op for op, and leaves the same
// tree.
func TestShortBuildWidthInvariant(t *testing.T) {
	build := func(fsys fsim.FS) error {
		_, _, err := BuildOrLoad(nanoBuild(fsys, "/bench"))
		return err
	}
	tape1, tree1 := widthRun(t, 1, "/bench", build)
	tape8, tree8 := widthRun(t, 8, "/bench", build)
	if tree1 != tree8 {
		t.Fatalf("tree digest at GOMAXPROCS 1 %s, at 8 %s", tree1, tree8)
	}
	if !reflect.DeepEqual(tape1, tape8) {
		t.Fatalf("tape at GOMAXPROCS 1 (%d ops) differs from the tape at 8 (%d ops)", len(tape1), len(tape8))
	}
}

// TestShortTournamentWidthInvariant: a journaled tournament, power-cut after
// five runs and resumed, performs the same filesystem operations at GOMAXPROCS 1 and
// at 8 and ends in the same tree and digest.
func TestShortTournamentWidthInvariant(t *testing.T) {
	tbl, _ := buildNanoTable(t)
	digests := map[int]string{}
	runAt := func(procs int) ([]fsim.Op, string) {
		return widthRun(t, procs, "/tour", func(fsys fsim.FS) error {
			cfg := nanoTournament(tbl, fsys, "/tour")
			killTournament(t, cfg, 5)
			tour, err := RunTournament(cfg)
			if err == nil {
				digests[procs] = tour.Digest
			}
			return err
		})
	}
	tape1, tree1 := runAt(1)
	tape8, tree8 := runAt(8)
	if digests[1] != digests[8] || tree1 != tree8 {
		t.Fatalf("GOMAXPROCS 1 vs 8: digest %s vs %s, tree %s vs %s", digests[1], digests[8], tree1, tree8)
	}
	if !reflect.DeepEqual(tape1, tape8) {
		t.Fatalf("tape at GOMAXPROCS 1 (%d ops) differs from the tape at 8 (%d ops)", len(tape1), len(tape8))
	}
}
