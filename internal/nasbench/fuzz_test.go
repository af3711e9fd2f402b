package nasbench

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"nasgo/internal/ckpt"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
)

// handTable is a small hand-constructed table (no training involved) the
// fuzz targets and the corpus generator mutate.
func handTable() *Table {
	return &Table{
		Meta: Meta{
			Bench: "Combo",
			Space: "combo-nano",
			Size:  3,
			Eval:  evaluator.Config{Fidelity: 0.1, RealEpochs: 1, BenchSeed: testBenchSeed},
		},
		Records: []Record{
			{Index: 0, Key: "arch-a", Metric: 0.51, Attempts: 1, Duration: 700},
			{Index: 1, Key: "arch-b", Metric: math.Inf(1), Attempts: 1, Duration: 900},
			{Index: 2, Key: "arch-c", Failed: true, Err: "compile: bad connect"},
		},
	}
}

// rawTable renders handTable through the real writer.
func rawTable(t testing.TB) []byte {
	t.Helper()
	mem := fsim.NewMemFS()
	if err := WriteTableFS(mem, "/t.nasbench", handTable()); err != nil {
		t.Fatal(err)
	}
	raw, err := mem.ReadFile("/t.nasbench")
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// appendFrame appends one WAL frame, laid out as walWriter.append does.
func appendFrame(dst, payload []byte) []byte {
	return append(ckpt.AppendFrameHeader(dst, recMagic, walVersion, payload), payload...)
}

// rawRecordFrames renders n WAL record frames through the real framer.
func rawRecordFrames(t testing.TB, recs ...Record) []byte {
	t.Helper()
	var out []byte
	for _, r := range recs {
		payload, err := gobEncode("wal unit", r)
		if err != nil {
			t.Fatal(err)
		}
		out = appendFrame(out, payload)
	}
	return out
}

// mutations is the committed corpus schedule: every classic damage shape
// applied to valid writer output. The same shapes seed both fuzz targets.
func mutations(valid []byte) map[string][]byte {
	flip := append([]byte(nil), valid...)
	flip[len(flip)-9] ^= 0x40 // payload bit flip (tail is inside payload)
	future := append([]byte(nil), valid...)
	future[11] = 99 // version field of the first frame header
	return map[string][]byte{
		"valid":            valid,
		"empty":            {},
		"header-cut":       valid[:4],
		"truncated":        valid[:len(valid)/2],
		"torn-tail":        valid[:len(valid)-3],
		"payload-bit-flip": flip,
		"future-version":   future,
		"trailing-garbage": append(append([]byte(nil), valid...), "garbage"...),
	}
}

func writeRaw(t testing.TB, mem *fsim.MemFS, path string, data []byte) {
	t.Helper()
	if err := mem.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := mem.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadTable holds the artifact reader's contract under arbitrary
// bytes: it never panics, never reports transient I/O for in-memory
// damage, classifies every rejection as ckpt.ErrCorrupt (or ckpt.ErrVersion
// for a structurally sound future-format frame), and anything it
// accepts is structurally valid, lookup-consistent, and survives a
// write/re-read round trip intact — a mis-decoded record is impossible.
func FuzzReadTable(f *testing.F) {
	for _, m := range mutations(rawTable(f)) {
		f.Add(m)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := fsim.NewMemFS()
		writeRaw(t, mem, "/t/table.nasbench", data)
		tbl, err := ReadTableFS(mem, "/t/table.nasbench")
		if err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) && !errors.Is(err, ckpt.ErrVersion) {
				t.Fatalf("rejection classifies as neither corruption nor future version: %v", err)
			}
			if ckpt.IsTransient(err) {
				t.Fatalf("in-memory damage classified transient: %v", err)
			}
			return
		}
		if tbl.Meta.Size != len(tbl.Records) {
			t.Fatalf("accepted table: meta size %d != %d records", tbl.Meta.Size, len(tbl.Records))
		}
		for i, r := range tbl.Records {
			if r.Index != i || r.Key == "" {
				t.Fatalf("accepted table: record %d = %+v", i, r)
			}
			got, ok := tbl.Metric(r.Key)
			if r.Failed && ok {
				t.Fatalf("failed record %q served a metric", r.Key)
			}
			if !r.Failed && (!ok || got != r.Metric && !(math.IsNaN(got) && math.IsNaN(r.Metric))) {
				t.Fatalf("Metric(%q) = %v,%v, record holds %v", r.Key, got, ok, r.Metric)
			}
		}
		// Round trip: rewriting what we decoded reproduces the same table.
		if err := WriteTableFS(mem, "/t/rt.nasbench", tbl); err != nil {
			t.Fatalf("round-trip write: %v", err)
		}
		rt, err := ReadTableFS(mem, "/t/rt.nasbench")
		if err != nil {
			t.Fatalf("round-trip read: %v", err)
		}
		if !reflect.DeepEqual(rt.Meta, tbl.Meta) || !reflect.DeepEqual(rt.Records, tbl.Records) {
			t.Fatal("round trip changed the table")
		}
	})
}

// FuzzScanWAL holds the WAL scanner's contract: arbitrary segment bytes
// never panic, and on an in-memory filesystem the scan errors only with
// ckpt.ErrVersion, for an intact frame header from a newer build (any other
// damaged frame is a torn tail ending its segment); decodeUnits rejects every
// surviving-payload inconsistency as ErrCorrupt, never transient; and
// whatever survives is a contiguous record prefix. Two fuzzed segments
// cover the cross-segment cases (mid-sequence loss).
func FuzzScanWAL(f *testing.F) {
	recs := []Record{
		{Index: 0, Key: "arch-a", Metric: 0.5, Attempts: 1, Duration: 700},
		{Index: 1, Key: "arch-b", Metric: math.NaN(), Attempts: 1, Duration: 900},
	}
	seg1 := rawRecordFrames(f, recs[0])
	seg2 := rawRecordFrames(f, recs[1])
	for _, m := range mutations(rawRecordFrames(f, recs...)) {
		f.Add(m, []byte{})
		f.Add(seg1, m)
	}
	// Mid-sequence loss: segment 2 continues at index 1 but segment 1 is gone.
	f.Add([]byte{}, seg2)
	f.Fuzz(func(t *testing.T, s1, s2 []byte) {
		mem := fsim.NewMemFS()
		writeRaw(t, mem, "/w/"+segName(1), s1)
		writeRaw(t, mem, "/w/"+segName(2), s2)
		payloads, maxSeg, err := scanSegments(mem, "/w")
		if err != nil {
			if !errors.Is(err, ckpt.ErrVersion) || ckpt.IsTransient(err) {
				t.Fatalf("scan errored on in-memory segments with other than a future version: %v", err)
			}
			return
		}
		if maxSeg != 2 {
			t.Fatalf("maxSeg = %d, want 2", maxSeg)
		}
		decoded, err := decodeUnits(payloads, validRecord)
		if err != nil {
			if !errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("rejection does not classify as corruption: %v", err)
			}
			if ckpt.IsTransient(err) {
				t.Fatalf("in-memory damage classified transient: %v", err)
			}
			return
		}
		for i, r := range decoded {
			if r.Index != i || r.Key == "" {
				t.Fatalf("accepted record %d = %+v", i, r)
			}
		}
	})
}

// TestShortFuzzCorpusCommitted pins that the seed corpus is actually in
// the tree (go test only exercises committed corpus + f.Add seeds; the
// committed files make the damage shapes reviewable and stable).
func TestShortFuzzCorpusCommitted(t *testing.T) {
	for _, target := range []string{"FuzzReadTable", "FuzzScanWAL"} {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if len(entries) < 7 {
			t.Fatalf("%s holds %d corpus files, want the full mutation schedule (≥7)", dir, len(entries))
		}
	}
}

// TestGenerateFuzzCorpus (re)generates the committed corpus files. It only
// runs when NASBENCH_GEN_CORPUS=1 — run it after changing the framing and
// commit the result.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("NASBENCH_GEN_CORPUS") != "1" {
		t.Skip("set NASBENCH_GEN_CORPUS=1 to regenerate the committed corpus")
	}
	write := func(target, name string, values ...[]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString("go test fuzz v1\n")
		for _, v := range values {
			buf.WriteString("[]byte(" + strconv.Quote(string(v)) + ")\n")
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, m := range mutations(rawTable(t)) {
		write("FuzzReadTable", name, m)
	}
	recs := []Record{
		{Index: 0, Key: "arch-a", Metric: 0.5, Attempts: 1, Duration: 700},
		{Index: 1, Key: "arch-b", Metric: math.NaN(), Attempts: 1, Duration: 900},
	}
	seg1 := rawRecordFrames(t, recs[0])
	seg2 := rawRecordFrames(t, recs[1])
	for name, m := range mutations(rawRecordFrames(t, recs...)) {
		write("FuzzScanWAL", name+"-seg1", m, []byte{})
		write("FuzzScanWAL", name+"-seg2", seg1, m)
	}
	write("FuzzScanWAL", "mid-sequence-loss", []byte{}, seg2)
}
