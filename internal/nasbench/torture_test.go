package nasbench

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
)

const tortureDir = "/bench"

// durableState classifies what a crash image durably holds: a finished
// valid artifact (done), or a WAL record prefix of length recs.
type durableState struct {
	done bool
	recs int
}

// classifyImage reads a crash image with the same readers the builder
// uses. In honest mode every surviving state must classify cleanly; the
// lie flag relaxes that to "corrupt is acceptable, mis-decode is not".
func classifyImage(t *testing.T, img *fsim.MemFS, ref []byte, lies bool) (durableState, bool) {
	t.Helper()
	switch tbl, err := ReadTableFS(img, filepath.Join(tortureDir, TableFile)); {
	case err == nil:
		// A valid artifact is only ever produced by the atomic finalize, so
		// its bytes must equal the reference — old-or-new, never torn.
		raw, rerr := img.ReadFile(filepath.Join(tortureDir, TableFile))
		if rerr != nil || !bytes.Equal(raw, ref) {
			t.Fatalf("surviving artifact decodes valid but matches no completed write (read err %v)", rerr)
		}
		return durableState{done: true, recs: len(tbl.Records)}, false
	case errors.Is(err, fs.ErrNotExist):
	case errors.Is(err, ckpt.ErrCorrupt):
		if !lies {
			t.Fatalf("honest crash image holds a corrupt artifact: %v", err)
		}
		return durableState{}, true
	default:
		t.Fatalf("classify artifact: %v", err)
	}
	payloads, _, err := scanSegments(img, tortureDir)
	if err != nil {
		t.Fatalf("classify wal: %v", err)
	}
	recs, err := decodeUnits(payloads, validRecord)
	if err != nil {
		if !lies && errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("honest crash image holds a corrupt wal: %v", err)
		}
		return durableState{}, true
	}
	return durableState{recs: len(recs)}, false
}

type buildOutcome struct {
	rep      *BuildReport
	artifact []byte
	err      error
}

// TestShortTortureBuilderCrashEnumeration is the builder's durability
// acceptance test (DESIGN.md §9, the campaign torture protocol of §8):
//
//  1. Record one uninterrupted nano build over a RecordFS tape.
//  2. For every mutating filesystem operation k, replay the tape into a
//     power cut at op k and take the crash image.
//  3. Classify the image with the builder's own readers: honest-mode
//     images must never classify corrupt, and a surviving valid artifact
//     must byte-match the reference.
//  4. Resume the build on the image: it must complete, retrain ONLY the
//     records the image does not durably hold (Trained == Total − durable
//     count), and finalize to the reference bytes. Resumes are memoized
//     by image digest, so few crash points pay for real training.
//
// The lie pass repeats the sweep with fsyncs acknowledged but dropped:
// damage must surface as ckpt.ErrCorrupt (quarantine + rebuild inside
// BuildOrLoad, or a descriptive error), never as a mis-decoded record, and
// every build that completes still produces the reference bytes.
//
// Both sweeps run at the ambient GOMAXPROCS and again at 4, where the
// recording build and every resume train several architectures at once; the
// two widths must record the same tape, op for op.
func TestShortTortureBuilderCrashEnumeration(t *testing.T) {
	var tapes [][]fsim.Op
	for _, procs := range []int{runtime.GOMAXPROCS(0), 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tapes = append(tapes, tortureBuilder(t))
		})
	}
	if len(tapes) == 2 && !reflect.DeepEqual(tapes[0], tapes[1]) {
		t.Fatal("the recorded build's filesystem ops depend on GOMAXPROCS")
	}
}

// tortureBuilder is one width's crash enumeration; it returns the tape.
func tortureBuilder(t *testing.T) []fsim.Op {
	// 1. Record.
	mem := fsim.NewMemFS()
	rec := fsim.NewRecordFS(mem)
	_, repRef, err := BuildOrLoad(nanoBuild(rec, tortureDir))
	if err != nil {
		t.Fatal(err)
	}
	if repRef.Trained != repRef.Total {
		t.Fatalf("recording build: %+v", repRef)
	}
	ref, err := mem.ReadFile(filepath.Join(tortureDir, TableFile))
	if err != nil {
		t.Fatal(err)
	}
	tape := rec.Ops()

	total, err := fsim.CrashPoints(tape)
	if err != nil {
		t.Fatal(err)
	}
	// 1 mkdir + (segment create + dir sync) + 9×(record write + fsync) +
	// the 5-op atomic finalize + the 2-op janitor = 28 mutating ops at
	// minimum; fewer means the build stopped journaling per record.
	if total < 28 {
		t.Fatalf("tape has only %d mutating ops — the build stopped journaling", total)
	}
	t.Log("tape ops:", len(tape), "crash points:", total, "artifact bytes:", len(ref))

	memo := map[string]*buildOutcome{}
	resume := func(img *fsim.MemFS) *buildOutcome {
		d := img.TreeDigest(tortureDir)
		if out, ok := memo[d]; ok {
			return out
		}
		out := &buildOutcome{}
		_, out.rep, out.err = BuildOrLoad(nanoBuild(img, tortureDir))
		if out.err == nil {
			out.artifact, out.err = img.ReadFile(filepath.Join(tortureDir, TableFile))
		}
		memo[d] = out
		return out
	}

	crashImage := func(k int64, lies bool) *fsim.MemFS {
		img, err := fsim.CrashImageAt(tape, k, lies)
		if err != nil {
			t.Fatal(err)
		}
		return img
	}

	// 2–4. Honest sweep.
	distinct := len(memo)
	for k := int64(1); k <= total; k++ {
		img := crashImage(k, false)
		st, damaged := classifyImage(t, img, ref, false)
		if damaged {
			t.Fatalf("crash point %d: honest image classified damaged", k)
		}
		out := resume(img)
		if out.err != nil {
			t.Fatalf("crash point %d: resume: %v", k, out.err)
		}
		wantTrained := out.rep.Total - st.recs
		if st.done {
			wantTrained = 0
		}
		if out.rep.Trained != wantTrained {
			t.Fatalf("crash point %d: image durably holds %d records (done=%v) but resume trained %d, want %d — a durable record was retrained or a lost one trusted",
				k, st.recs, st.done, out.rep.Trained, wantTrained)
		}
		if !bytes.Equal(out.artifact, ref) {
			t.Fatalf("crash point %d: resumed artifact differs from the uninterrupted build", k)
		}
	}
	t.Log("honest pass: crash points:", total, "distinct images:", len(memo)-distinct)

	// Lie sweep: fsync acknowledged, pages dropped.
	rejected, resumed := 0, 0
	for k := int64(1); k <= total; k++ {
		img := crashImage(k, true)
		_, damaged := classifyImage(t, img, ref, true)
		out := resume(img)
		switch {
		case out.err != nil:
			if !errors.Is(out.err, ckpt.ErrCorrupt) {
				t.Fatalf("lie crash point %d: resume failed non-descriptively: %v", k, out.err)
			}
			rejected++
		case !bytes.Equal(out.artifact, ref):
			t.Fatalf("lie crash point %d: resumed artifact differs from the uninterrupted build", k)
		default:
			resumed++
			_ = damaged
		}
	}
	t.Log("lie pass: crash points:", total, "rejected corrupt:", rejected, "resumed identical:", resumed,
		"distinct images total:", len(memo))
	if resumed == 0 {
		t.Fatal("lie pass never resumed — the sweep proved nothing")
	}
	return tape
}
