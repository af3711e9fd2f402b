package hpc

import (
	"container/heap"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzEventQueue fuzzes the (time, seq) insertion stream into the event
// queue. The input is consumed as 3-byte ops — an opcode byte and a 16-bit
// operand — mixing dense pushes, far-future pushes, pushes into the past of
// the last pop, and pops. Invariants:
//
//   - every pop agrees with the container/heap reference, i.e. returns the
//     (time, seq)-minimum of the pending set with FIFO seq tie-breaks;
//   - at every fourth op and before the drain, pending() lists exactly the
//     reference's contents and leaves the queue untouched;
//   - the final drain is non-decreasing in time with seq breaking ties;
//   - no event is lost or duplicated: each pushed seq pops exactly once.
//
// The f.Add seeds cover same-time bursts, wide strides, a long fill and
// drain, far-future pushes, and pushes into the past. The committed corpus
// under testdata/fuzz/FuzzEventQueue holds the same five inputs;
// TestEventQueueCorpusMatchesSeeds keeps the two byte-identical.
func FuzzEventQueue(f *testing.F) {
	f.Add(seedSameTimeBurst())
	f.Add(seedStrides())
	f.Add(seedFillDrain())
	f.Add(seedFarFuture())
	f.Add(seedPast())

	f.Fuzz(func(t *testing.T, data []byte) {
		var q eventQueue
		ref := &refQueue{}
		heap.Init(ref)
		var seq int64
		var lastPop float64
		popped := map[int64]bool{}

		push := func(tm float64) {
			seq++
			q.push(tm, seq, nil)
			heap.Push(ref, refEvent{time: tm, seq: seq})
		}
		pop := func() {
			if ref.Len() == 0 {
				if len(q) != 0 {
					t.Fatalf("queue has %d events, ref empty", len(q))
				}
				if _, _, ok := q.pop(); ok {
					t.Fatal("pop on empty queue succeeded")
				}
				return
			}
			if len(q) == 0 {
				t.Fatalf("queue empty, ref has %d", ref.Len())
			}
			qt, qs := popQueue(t, &q)
			re := heap.Pop(ref).(refEvent)
			if qt != re.time || qs != re.seq {
				t.Fatalf("queue popped (%g, %d), ref popped (%g, %d)", qt, qs, re.time, re.seq)
			}
			if popped[qs] {
				t.Fatalf("seq %d popped twice", qs)
			}
			popped[qs] = true
			lastPop = qt
		}

		for i := 0; i+3 <= len(data); i += 3 {
			u := float64(uint16(data[i+1])<<8 | uint16(data[i+2]))
			switch data[i] % 4 {
			case 0:
				push(u / 8) // dense: collisions at 1/8 s granularity
			case 1:
				push(u * 100) // far future
			case 2:
				push(lastPop * u / 65536) // in the past of the last pop
			case 3:
				pop()
			}
			if len(q) != ref.Len() {
				t.Fatalf("op %d: queue len %d != ref len %d", i/3, len(q), ref.Len())
			}
			if i/3%4 == 0 {
				checkPending(t, &q, *ref)
			}
		}
		checkPending(t, &q, *ref)

		// Drain: non-decreasing (time, seq), matching the reference, and
		// accounting for every pushed event exactly once.
		prevT, prevS := -1.0, int64(-1)
		for ref.Len() > 0 {
			if len(q) == 0 {
				t.Fatalf("drain: queue empty, ref has %d", ref.Len())
			}
			qt, qs := popQueue(t, &q)
			re := heap.Pop(ref).(refEvent)
			if qt != re.time || qs != re.seq {
				t.Fatalf("drain: queue (%g, %d) != ref (%g, %d)", qt, qs, re.time, re.seq)
			}
			if qt < prevT || (qt == prevT && qs <= prevS) {
				t.Fatalf("drain order went backwards: (%g, %d) after (%g, %d)", qt, qs, prevT, prevS)
			}
			prevT, prevS = qt, qs
			if popped[qs] {
				t.Fatalf("seq %d popped twice", qs)
			}
			popped[qs] = true
		}
		if len(q) != 0 {
			t.Fatalf("queue not empty after drain: %d", len(q))
		}
		if int64(len(popped)) != seq {
			t.Fatalf("pushed %d events, popped %d — events lost", seq, len(popped))
		}
	})
}

// TestEventQueueCorpusMatchesSeeds checks that each committed corpus file
// under testdata/fuzz/FuzzEventQueue encodes exactly its f.Add seed, so a
// change to a seed builder cannot leave a stale file behind.
func TestEventQueueCorpusMatchesSeeds(t *testing.T) {
	seeds := map[string][]byte{
		"seed-same-time-burst": seedSameTimeBurst(),
		"seed-rollover":        seedStrides(),
		"seed-resize":          seedFillDrain(),
		"seed-far-future":      seedFarFuture(),
		"seed-past":            seedPast(),
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzEventQueue")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(seeds) {
		t.Errorf("%s holds %d files, want %d", dir, len(entries), len(seeds))
	}
	for name, data := range seeds {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Error(err)
			continue
		}
		want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if string(got) != want {
			t.Errorf("%s differs from its f.Add seed; want:\n%s", name, want)
		}
	}
}

// seedSameTimeBurst: 24 pushes at one timestamp, then pops — the FIFO
// tie-break under maximal collision.
func seedSameTimeBurst() []byte {
	var b []byte
	for i := 0; i < 24; i++ {
		b = append(b, 0, 0x01, 0x00)
	}
	for i := 0; i < 24; i++ {
		b = append(b, 3, 0, 0)
	}
	return b
}

// seedStrides: pushes 128 s apart, a pop after every third, then a drain.
func seedStrides() []byte {
	var b []byte
	for i := 0; i < 20; i++ {
		u := uint16(i * 1024)
		b = append(b, 0, byte(u>>8), byte(u))
		if i%3 == 2 {
			b = append(b, 3, 0, 0)
		}
	}
	for i := 0; i < 20; i++ {
		b = append(b, 3, 0, 0)
	}
	return b
}

// seedFillDrain: 80 pushes 4.625 s apart, then a full drain.
func seedFillDrain() []byte {
	var b []byte
	for i := 0; i < 80; i++ {
		u := uint16(i * 37)
		b = append(b, 0, byte(u>>8), byte(u))
	}
	for i := 0; i < 80; i++ {
		b = append(b, 3, 0, 0)
	}
	return b
}

// seedFarFuture: far-future and near-term pushes interleaved with pops, so
// the near term empties and refills while far events wait.
func seedFarFuture() []byte {
	var b []byte
	for i := 0; i < 16; i++ {
		u := uint16(i * 99)
		b = append(b, 1, byte(u>>8), byte(u))
		b = append(b, 0, 0, byte(i))
		b = append(b, 3, 0, 0)
	}
	b = append(b, 3, 0, 0, 3, 0, 0)
	return b
}

// seedPast: pops advance the last-pop time, then pushes land before it.
func seedPast() []byte {
	var b []byte
	for i := 0; i < 12; i++ {
		u := uint16(2000 + i*500)
		b = append(b, 0, byte(u>>8), byte(u))
	}
	for i := 0; i < 6; i++ {
		b = append(b, 3, 0, 0)
	}
	for i := 0; i < 6; i++ {
		b = append(b, 2, 0x40, byte(i), 3, 0, 0)
	}
	return b
}
