package hpc

import (
	"container/heap"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzEventQueue fuzzes the (time, seq) insertion stream into the calendar
// queue. The input is consumed as 3-byte ops — an opcode byte and a 16-bit
// operand — mixing dense pushes, far-future pushes (forcing the
// direct-search fallback and wheel rollover), pushes into the past of the
// scan position, and pops. Invariants:
//
//   - every pop agrees with the container/heap reference, i.e. returns the
//     (time, seq)-minimum of the pending set with FIFO seq tie-breaks;
//   - at every fourth op and before the drain, pending() lists exactly the
//     reference's contents and leaves the queue untouched;
//   - the final drain is non-decreasing in time with seq breaking ties;
//   - no event is lost or duplicated: each pushed seq pops exactly once.
//
// The committed seed corpus (testdata/fuzz/FuzzEventQueue) covers
// same-time bursts, bucket rollover, and the grow/shrink resize
// boundaries.
func FuzzEventQueue(f *testing.F) {
	f.Add(seedSameTimeBurst())
	f.Add(seedRollover())
	f.Add(seedResize())
	f.Add(seedFarFuture())
	f.Add(seedPast())

	f.Fuzz(func(t *testing.T, data []byte) {
		var cal calQueue
		ref := &refQueue{}
		heap.Init(ref)
		var seq int64
		var lastPop float64
		popped := map[int64]bool{}

		push := func(tm float64) {
			seq++
			cal.push(tm, seq, nil)
			heap.Push(ref, refEvent{time: tm, seq: seq})
		}
		pop := func() {
			if ref.Len() == 0 {
				if cal.count != 0 {
					t.Fatalf("cal has %d events, ref empty", cal.count)
				}
				if _, _, ok := cal.pop(); ok {
					t.Fatal("pop on empty queue succeeded")
				}
				return
			}
			idx, ok := cal.scan()
			if !ok {
				t.Fatalf("cal empty, ref has %d", ref.Len())
			}
			cs := cal.arena[idx].seq
			_, ct, _ := cal.pop()
			re := heap.Pop(ref).(refEvent)
			if ct != re.time || cs != re.seq {
				t.Fatalf("cal popped (%g, %d), ref popped (%g, %d)", ct, cs, re.time, re.seq)
			}
			if popped[cs] {
				t.Fatalf("seq %d popped twice", cs)
			}
			popped[cs] = true
			lastPop = ct
		}

		for i := 0; i+3 <= len(data); i += 3 {
			u := float64(uint16(data[i+1])<<8 | uint16(data[i+2]))
			switch data[i] % 4 {
			case 0:
				push(u / 8) // dense: collisions at 1/8 s granularity
			case 1:
				push(u * 100) // far future: beyond any wheel span
			case 2:
				push(lastPop * u / 65536) // in the past of the scan position
			case 3:
				pop()
			}
			if cal.count != ref.Len() {
				t.Fatalf("op %d: cal len %d != ref len %d", i/3, cal.count, ref.Len())
			}
			if i/3%4 == 0 {
				checkPending(t, &cal, *ref)
			}
		}
		checkPending(t, &cal, *ref)

		// Drain: non-decreasing (time, seq), matching the reference, and
		// accounting for every pushed event exactly once.
		prevT, prevS := -1.0, int64(-1)
		for ref.Len() > 0 {
			idx, ok := cal.scan()
			if !ok {
				t.Fatalf("drain: cal empty, ref has %d", ref.Len())
			}
			cs := cal.arena[idx].seq
			_, ct, _ := cal.pop()
			re := heap.Pop(ref).(refEvent)
			if ct != re.time || cs != re.seq {
				t.Fatalf("drain: cal (%g, %d) != ref (%g, %d)", ct, cs, re.time, re.seq)
			}
			if ct < prevT || (ct == prevT && cs <= prevS) {
				t.Fatalf("drain order went backwards: (%g, %d) after (%g, %d)", ct, cs, prevT, prevS)
			}
			prevT, prevS = ct, cs
			if popped[cs] {
				t.Fatalf("seq %d popped twice", cs)
			}
			popped[cs] = true
		}
		if cal.count != 0 {
			t.Fatalf("cal not empty after drain: %d", cal.count)
		}
		if int64(len(popped)) != seq {
			t.Fatalf("pushed %d events, popped %d — events lost", seq, len(popped))
		}
	})
}

var writeFuzzCorpus = flag.Bool("write-fuzz-corpus", false,
	"rewrite the committed seed corpus under testdata/fuzz/FuzzEventQueue")

// TestWriteFuzzCorpus materializes the in-code seeds as committed corpus
// files (the format `go test -fuzz` reads), so the interesting boundaries —
// same-time bursts, rollover, resize — are exercised by plain `go test`
// runs of the fuzz target in CI as well.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*writeFuzzCorpus {
		t.Skip("pass -write-fuzz-corpus to rewrite the seed corpus")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzEventQueue")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]byte{
		"same-time-burst": seedSameTimeBurst(),
		"rollover":        seedRollover(),
		"resize":          seedResize(),
		"far-future":      seedFarFuture(),
		"past":            seedPast(),
	}
	for name, data := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(data)))
		if err := os.WriteFile(filepath.Join(dir, "seed-"+name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// Seed-corpus builders; mirrored as files under testdata/fuzz/FuzzEventQueue.

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

// seedRollover: pushes striding whole buckets so the scan wraps the wheel,
// interleaved with pops.
func seedRollover() []byte {
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

// seedResize: 80 pushes (crossing the 2·16 and 2·32 grow thresholds) then
// a full drain (crossing the shrink thresholds back down).
func seedResize() []byte {
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

// seedFarFuture: dense and far-future pushes interleaved with pops — the
// direct-search fallback with a repopulating near term.
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

// seedPast: pops establish wheel progress, then pushes land in its past.
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
