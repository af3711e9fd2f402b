// Segmented, checksummed write-ahead log: the durability substrate of the
// table builder and the tournament runner.
//
// A build session appends one framed record per finished unit of work
// (an architecture trained, a search completed) to a fresh segment file,
// fsyncing after every frame; frames are written and parsed by the
// internal/ckpt container codec (ckpt.AppendFrameHeader / ckpt.ParseFrame),
// so every torn-write and bit-flip failure mode the container reader
// rejects is rejected here too. All I/O goes through the internal/fsim seam.
//
// Durability protocol:
//
//   - The fsim.FS seam has no append-reopen (deliberately: appending to a
//     possibly-torn tail is how real WALs corrupt themselves), so every
//     session writes a NEW segment, numbered after the highest existing
//     one. Crash-abandoned empty segments are harmless and skipped.
//   - A segment's directory entry is made durable (SyncDir) before its
//     first record: a record whose fsync returned is durable, full stop.
//   - Recovery scans segments in numeric order and accepts the longest
//     valid frame prefix. An invalid frame ends its segment — the torn
//     tail a power cut legitimately leaves — and scanning continues with
//     the next segment, because a crashed session's successor may already
//     have written one. Record-index contiguity (enforced by decodeUnits)
//     then catches every mid-sequence loss as ErrCorrupt.
//
// journal is the artifact-or-WAL recovery built on top: the one routine
// Build and RunTournament both resume through.
package nasbench

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
)

const (
	recMagic   = "nasgorec"
	walVersion = 1

	segPrefix = "seg-"
	segSuffix = ".wal"
)

// corruptErr builds a structural-damage error wrapping ckpt.ErrCorrupt, so
// callers classify WAL damage exactly like container damage.
func corruptErr(format string, args ...any) error {
	return fmt.Errorf("nasbench: %s: %w", fmt.Sprintf(format, args...), ckpt.ErrCorrupt)
}

func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// segNumber parses a segment filename; ok=false for foreign files, which
// include every spelling of a number other than segName's (seg-1.wal,
// seg-+1.wal): scanSegments reads segName(n), not the entry it listed.
func segNumber(name string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
	if err != nil || n < 0 || segName(n) != name {
		return 0, false
	}
	return n, true
}

// scanSegments returns the frame payloads of the longest durable prefix
// across all segments under dir, and the highest segment number seen (0 when
// none). I/O errors pass through unwrapped, so ckpt.IsTransient still
// classifies them; a missing dir scans as empty.
func scanSegments(fsys fsim.FS, dir string) (payloads [][]byte, maxSeg int, err error) {
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("nasbench: scan wal %s: %w", dir, err)
	}
	var segs []int
	for _, e := range entries {
		if n, ok := segNumber(e.Name()); ok && !e.IsDir() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	for _, n := range segs {
		maxSeg = n
		raw, err := fsys.ReadFile(filepath.Join(dir, segName(n)))
		if err != nil {
			return nil, 0, fmt.Errorf("nasbench: read wal segment %s: %w", segName(n), err)
		}
		for len(raw) > 0 {
			payload, _, rest, err := ckpt.ParseFrame(raw, recMagic, walVersion)
			if err != nil {
				// Bytes that do not form a complete valid frame are a torn
				// tail: drop the rest of THIS segment only. If frames
				// were lost mid-sequence decodeUnits' index-contiguity check
				// turns the gap into ErrCorrupt.
				break
			}
			payloads = append(payloads, append([]byte(nil), payload...))
			raw = rest
		}
	}
	return payloads, maxSeg, nil
}

// walWriter appends framed records to one open segment, fsyncing per record.
type walWriter struct {
	f   fsim.File
	buf []byte
}

// newSegment creates segment number n under dir and makes its directory
// entry durable before any record is written, so "fsync returned" implies
// "record survives a power cut".
func newSegment(fsys fsim.FS, dir string, n int) (*walWriter, error) {
	f, err := fsys.Create(filepath.Join(dir, segName(n)))
	if err != nil {
		return nil, fmt.Errorf("nasbench: create wal segment: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("nasbench: sync wal dir %s: %w", dir, err)
	}
	return &walWriter{f: f}, nil
}

// append writes one framed payload and fsyncs. When it returns nil the
// record is durable.
func (w *walWriter) append(payload []byte) error {
	w.buf = append(ckpt.AppendFrameHeader(w.buf[:0], recMagic, walVersion, payload), payload...)
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("nasbench: append wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("nasbench: sync wal record: %w", err)
	}
	return nil
}

func (w *walWriter) close() error { return w.f.Close() }

// removeSegments deletes every segment under dir and syncs the directory
// once — the janitor step after a finalized artifact makes the WAL
// redundant. Missing files (a crash mid-janitor) are not an error.
func removeSegments(fsys fsim.FS, dir string) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("nasbench: janitor %s: %w", dir, err)
		}
	}()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	removed := false
	for _, e := range entries {
		if _, ok := segNumber(e.Name()); ok && !e.IsDir() {
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
			removed = true
		}
	}
	if removed {
		return fsys.SyncDir(dir)
	}
	return nil
}

// gobEncode and gobDecode are the payload codec of every artifact and WAL
// unit in this package.
func gobEncode(what string, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("nasbench: encode %s: %w", what, err)
	}
	return buf.Bytes(), nil
}

// gobDecode's callers classify a failure as structural damage (corruptErr):
// the frame checksum passed, so the bytes were framed by something that was
// not a correct writer.
func gobDecode(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// decodeUnits decodes WAL frame payloads into the contiguous unit prefix
// they journal. valid must at least hold unit i to carrying index i: that
// contiguity is the scanner's mid-sequence-loss detector — a dropped torn
// tail inside a non-final segment surfaces here as ErrCorrupt instead of
// silently shortening the result.
func decodeUnits[U any](payloads [][]byte, valid func(i int, u U) bool) ([]U, error) {
	units := make([]U, 0, len(payloads))
	for i, p := range payloads {
		var u U
		if err := gobDecode(p, &u); err != nil {
			return nil, corruptErr("wal unit %d undecodable: %v", i, err)
		}
		if !valid(i, u) {
			return nil, corruptErr("wal unit %d is malformed or out of sequence (mid-sequence loss): %+v", i, u)
		}
		units = append(units, u)
	}
	return units, nil
}

// journal is one resumable session over a directory holding either a
// finished artifact or the WAL of the units that will make it up.
type journal[U any] struct {
	fsys   fsim.FS
	dir    string
	units  []U // the durable prefix recovered at open
	maxSeg int
	w      *walWriter
}

// openJournal creates dir if needed and recovers it. A valid artifact (read
// succeeds) makes the WAL redundant: leftover segments are janitored and
// the artifact is returned with a nil journal. A missing artifact falls
// through to the WAL, and so does a structurally damaged one after it is
// durably removed — the WAL stays authoritative until a valid artifact
// exists, the case a crash under fsync-lying firmware leaves. Any other
// read error — transient I/O (ckpt.IsTransient, safe to retry), a future
// format, an artifact read rejects as another configuration's — surfaces
// with nothing touched. valid is decodeUnits' check; total is how many
// units the finished artifact holds, and a WAL with more is refused.
func openJournal[A, U any](fsys fsim.FS, dir, artifact string, total int,
	read func() (A, error), valid func(i int, u U) bool) (A, *journal[U], error) {
	var none A
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return none, nil, fmt.Errorf("nasbench: create %s: %w", dir, err)
	}
	switch art, err := read(); {
	case err == nil:
		return art, nil, removeSegments(fsys, dir)
	case errors.Is(err, fs.ErrNotExist):
	case errors.Is(err, ckpt.ErrCorrupt):
		if err = fsys.Remove(artifact); err == nil {
			err = fsys.SyncDir(dir)
		}
		if err != nil {
			return none, nil, fmt.Errorf("nasbench: quarantine %s: %w", artifact, err)
		}
	default:
		return none, nil, err
	}
	payloads, maxSeg, err := scanSegments(fsys, dir)
	if err != nil {
		return none, nil, err
	}
	units, err := decodeUnits(payloads, valid)
	if err != nil {
		return none, nil, err
	}
	if len(units) > total {
		return none, nil, fmt.Errorf("nasbench: wal in %s holds %d units but this configuration makes %d — wrong space or wrong configuration?",
			dir, len(units), total)
	}
	return none, &journal[U]{fsys: fsys, dir: dir, units: units, maxSeg: maxSeg}, nil
}

// append journals one more unit to this session's segment (created on the
// first call, numbered after the highest existing one). When it returns nil
// the unit is durable.
func (j *journal[U]) append(u U) error {
	if j.w == nil {
		w, err := newSegment(j.fsys, j.dir, j.maxSeg+1)
		if err != nil {
			return err
		}
		j.w = w
	}
	payload, err := gobEncode("wal unit", u)
	if err != nil {
		return err
	}
	return j.w.append(payload)
}

// close closes the session's segment, if one was opened.
func (j *journal[U]) close() error {
	if j.w == nil {
		return nil
	}
	return j.w.close()
}
