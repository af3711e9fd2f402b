package nasbench

import (
	"testing"

	"nasgo/internal/fsim"
)

func TestShortSegNameRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 99999999} {
		if got, ok := segNumber(segName(n)); !ok || got != n {
			t.Fatalf("segNumber(segName(%d)) = %d, %v", n, got, ok)
		}
	}
	for _, bad := range []string{"table.nasbench", "seg-.wal", "seg-12", "12.wal", "seg-x8.wal",
		"seg-1.wal", "seg-+0000001.wal", "seg--0000001.wal"} {
		if got, ok := segNumber(bad); ok {
			t.Fatalf("segNumber(%q) = %d, want rejection", bad, got)
		}
	}
}

// TestShortScanSegmentsOrderAndForeignFiles pins that segments scan in
// numeric order regardless of creation order, foreign files in the
// directory (non-canonical segment names included) are ignored, and a
// missing directory is an empty scan.
func TestShortScanSegmentsOrderAndForeignFiles(t *testing.T) {
	mem := fsim.NewMemFS()
	if payloads, maxSeg, err := scanSegments(mem, "/absent"); err != nil || len(payloads) != 0 || maxSeg != 0 {
		t.Fatalf("missing dir scan: %d payloads, maxSeg %d, err %v", len(payloads), maxSeg, err)
	}

	// Write segment 10 before segment 2; records must still come back in
	// segment-number order. A foreign file rides along, ignored.
	if err := mem.MkdirAll("/w", 0o755); err != nil {
		t.Fatal(err)
	}
	w10, err := newSegment(mem, "/w", 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := w10.append([]byte("later")); err != nil {
		t.Fatal(err)
	}
	if err := w10.close(); err != nil {
		t.Fatal(err)
	}
	w2, err := newSegment(mem, "/w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.append([]byte("earlier")); err != nil {
		t.Fatal(err)
	}
	if err := w2.close(); err != nil {
		t.Fatal(err)
	}
	writeRaw(t, mem, "/w/notes.txt", []byte("not a segment"))
	// Non-canonical spellings of a segment number are foreign too: seg-2.wal
	// must not scan segment 2 a second time, and seg-+7.wal must not send the
	// scan looking for a seg-00000007.wal that does not exist.
	writeRaw(t, mem, "/w/seg-2.wal", []byte("stray"))
	writeRaw(t, mem, "/w/seg-+7.wal", []byte("stray"))

	payloads, maxSeg, err := scanSegments(mem, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if maxSeg != 10 || len(payloads) != 2 ||
		string(payloads[0]) != "earlier" || string(payloads[1]) != "later" {
		t.Fatalf("scan: maxSeg %d, payloads %q", maxSeg, payloads)
	}

	// Torn tail: garbage after a valid frame drops the tail of THAT
	// segment only; later segments still scan.
	writeRaw(t, mem, "/w/"+segName(3), append(appendFrame(nil, []byte("mid")), "torn garbage"...))
	payloads, _, err = scanSegments(mem, "/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(payloads) != 3 || string(payloads[1]) != "mid" {
		t.Fatalf("torn-tail scan: payloads %q", payloads)
	}

	if err := removeSegments(mem, "/w"); err != nil {
		t.Fatal(err)
	}
	payloads, maxSeg, err = scanSegments(mem, "/w")
	if err != nil || len(payloads) != 0 || maxSeg != 0 {
		t.Fatalf("post-janitor scan: %d payloads, maxSeg %d, err %v", len(payloads), maxSeg, err)
	}
	// Janitor on a segment-free directory is a no-op (no dir sync).
	if err := removeSegments(mem, "/w"); err != nil {
		t.Fatal(err)
	}
}
