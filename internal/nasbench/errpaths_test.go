package nasbench

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
	"nasgo/internal/space"
)

// createFailFS fails every Create with EIO; everything else passes through.
type createFailFS struct{ fsim.FS }

func (c createFailFS) Create(name string) (fsim.File, error) {
	return nil, fmt.Errorf("fsim: create %s: %w", name, syscall.EIO)
}

// syncDirFailFS fails every SyncDir with EIO.
type syncDirFailFS struct{ fsim.FS }

func (s syncDirFailFS) SyncDir(dir string) error {
	return fmt.Errorf("fsim: syncdir %s: %w", dir, syscall.EIO)
}

// TestShortNewSegmentErrors pins that a segment is only born durable:
// failure of the create OR of the directory sync surfaces transient, and
// the half-born segment does not linger after a SyncDir failure.
func TestShortNewSegmentErrors(t *testing.T) {
	mem := fsim.NewMemFS()
	if err := mem.MkdirAll("/w", 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := newSegment(createFailFS{mem}, "/w", 1); !ckpt.IsTransient(err) {
		t.Fatalf("create failure: %v", err)
	}
	if _, err := newSegment(syncDirFailFS{mem}, "/w", 1); !ckpt.IsTransient(err) {
		t.Fatalf("syncdir failure: %v", err)
	}
}

// comboPico is a 3-architecture slice (connect only) used to provoke the
// wrong-space WAL guards.
func comboPico() *space.Space {
	s := space.NewComboSmall()
	return freeRestrict(s, "combo-pico", map[int][]int{connectDecision(s): {0, 1, 8}})
}

// TestShortBuildRefusesOversizedWAL pins the build guard for a WAL that
// holds more records than the configured sub-space enumerates — a config
// mix-up that must halt, not truncate.
func TestShortBuildRefusesOversizedWAL(t *testing.T) {
	mem := fsim.NewMemFS()
	cfg := nanoBuild(mem, "/bench")
	killBuild(t, cfg, 5)
	cfg.Space = comboPico()
	if _, _, err := BuildOrLoad(cfg); err == nil || !strings.Contains(err.Error(), "wrong space") {
		t.Fatalf("oversized WAL: %v", err)
	}
}

// TestShortTournamentTransientAndOversized covers the tournament's
// recovery guards: a transient artifact read aborts retryable (no
// quarantine), and a WAL larger than the configured tournament refuses.
func TestShortTournamentTransientAndOversized(t *testing.T) {
	tbl, _ := buildNanoTable(t)
	mem := fsim.NewMemFS()
	cfg := nanoTournament(tbl, mem, "/tour")
	killTournament(t, cfg, 5)

	bad := cfg
	bad.FS = eioFS{mem}
	if _, err := RunTournament(bad); !ckpt.IsTransient(err) || errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("transient artifact read classified wrong: %v", err)
	}

	small := cfg
	small.Seeds = 1 // 4 runs total, WAL already holds 5
	if _, err := RunTournament(small); err == nil || !strings.Contains(err.Error(), "wrong configuration") {
		t.Fatalf("oversized tournament WAL: %v", err)
	}
}

// TestShortBuildRefusesFutureWALFrame: a frame from a newer build after a
// valid one is not a torn tail. BuildOrLoad must fail with ErrVersion and leave
// the tree untouched, not retrain the unit and journal past the newer
// record.
func TestShortBuildRefusesFutureWALFrame(t *testing.T) {
	mem := fsim.NewMemFS()
	cfg := nanoBuild(mem, "/bench")
	killBuild(t, cfg, 1)
	seg := "/bench/" + segName(1)
	raw, err := mem.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	future := []byte("a unit from a newer build")
	writeRaw(t, mem, seg, append(ckpt.AppendFrameHeader(raw, recMagic, walVersion+1, future), future...))
	before := mem.TreeDigest("/bench")
	if _, _, err := BuildOrLoad(cfg); !errors.Is(err, ckpt.ErrVersion) {
		t.Fatalf("future-version WAL frame: err %v, want ErrVersion", err)
	}
	if mem.TreeDigest("/bench") != before {
		t.Fatal("BuildOrLoad touched the store after refusing a future-version WAL frame")
	}
}
