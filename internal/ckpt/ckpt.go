// Package ckpt provides the crash-consistent file container used by nasgo's
// checkpoint/restore subsystem and other persisted artifacts.
//
// Two guarantees matter for restartable searches on a real machine:
//
//   - Atomicity: a writer killed mid-write (out of walltime, node failure)
//     must never leave a half-written file where a reader expects a valid
//     one. AtomicWriteFS stages into a temp file in the target directory
//     and renames it into place, so readers observe either the old complete
//     file or the new complete file, never a prefix.
//   - Self-validation: a file truncated or corrupted by the filesystem must
//     be rejected with a descriptive error, not silently mis-decoded.
//     WriteFileFS frames the payload with a magic string, a format version,
//     an explicit length, and a SHA-256 checksum; ReadFileFS verifies all
//     four.
//
// The container layout is:
//
//	[magic: 8 bytes] [version: 4 bytes BE] [payload length: 8 bytes BE]
//	[SHA-256 of payload: 32 bytes] [payload]
//
// AppendFrameHeader and ParseFrame are the only encoder and parser of that
// layout; the nasbench WAL frames its records with them too. Every function
// that touches a disk takes its filesystem through the fsim.FS seam and
// production code passes fsim.OS. Read errors classify two ways: structural
// damage wraps ErrCorrupt, I/O failures keep their errno so IsTransient can
// spot retryable conditions (EIO, ENOSPC).
package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"syscall"

	"nasgo/internal/fsim"
)

const headerLen = 8 + 4 + 8 + sha256.Size

// ErrCorrupt marks a file whose bytes are structurally damaged — truncated,
// wrong magic, trailing garbage, or checksum mismatch. Retrying the read
// cannot help; the caller should fall back or quarantine. Transient I/O
// errors (EIO, ENOSPC) do NOT wrap ErrCorrupt; test with IsTransient.
var ErrCorrupt = errors.New("ckpt: file corrupted")

// ErrVersion marks a structurally sound frame whose format version is
// above what this build reads — a file from the future, not damage.
// Quarantining or rebuilding over it would destroy good data; surface it.
var ErrVersion = errors.New("ckpt: unsupported format version")

// IsTransient reports whether err is a retryable I/O condition — a
// transient device error or a full disk — rather than corruption or a
// programming error. Both real syscall failures and fsim-injected faults
// satisfy it, since injected errors wrap the same errnos.
func IsTransient(err error) bool {
	return errors.Is(err, syscall.EIO) || errors.Is(err, syscall.ENOSPC)
}

// corruptErr builds a descriptive structural-damage error wrapping ErrCorrupt.
func corruptErr(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// AtomicWriteFS writes a file by staging into a temp file in the same
// directory, syncing, and renaming over the target. If write fails at any
// point, the target is left untouched and the temp file is removed.
func AtomicWriteFS(fsys fsim.FS, path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ckpt: create temp file in %s: %w", dir, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if tmpName != "" {
			tmp.Close()
			fsys.Remove(tmpName)
		}
	}()
	if err := write(tmp); err != nil {
		return fmt.Errorf("ckpt: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("ckpt: sync %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ckpt: close %s: %w", tmpName, err)
	}
	if err := fsys.Rename(tmpName, path); err != nil {
		// Clean up the orphan and sync the directory so the removal is
		// durable too — otherwise a crash resurrects the temp file for the
		// store janitor to deal with on every restart.
		fsys.Remove(tmpName)
		fsys.SyncDir(dir)
		tmpName = ""
		return fmt.Errorf("ckpt: rename into %s: %w", path, err)
	}
	tmpName = "" // renamed away; nothing to clean up
	return SyncDirFS(fsys, dir)
}

// SyncDirFS fsyncs a directory, making a preceding rename in it durable: on
// POSIX filesystems the rename itself lives in the directory, so a file
// synced and renamed into place can still vanish on power loss until the
// directory is synced too. AtomicWriteFS calls this after its rename;
// callers that move files around by hand should do the same.
func SyncDirFS(fsys fsim.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("ckpt: sync dir %s: %w", dir, err)
	}
	return nil
}

// AppendFrameHeader appends the header that frames payload to dst. A frame
// is that header followed by the payload bytes. magic must be 8 bytes.
func AppendFrameHeader(dst []byte, magic string, version uint32, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst = append(dst, magic...)
	dst = binary.BigEndian.AppendUint32(dst, version)
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(payload)))
	return append(dst, sum[:]...)
}

// ParseFrame validates the frame at the head of raw and returns its payload
// (aliasing raw), its version, and the bytes after it. It rejects wrong
// magic, version 0, truncation at any byte and checksum mismatches with an
// error wrapping ErrCorrupt, and versions above maxVersion with one wrapping
// ErrVersion.
func ParseFrame(raw []byte, magic string, maxVersion uint32) (payload []byte, version uint32, rest []byte, err error) {
	if len(raw) < headerLen {
		return nil, 0, nil, corruptErr("truncated header: %d bytes, need at least %d", len(raw), headerLen)
	}
	if string(raw[:8]) != magic {
		return nil, 0, nil, corruptErr("bad magic %q, want %q", raw[:8], magic)
	}
	version = binary.BigEndian.Uint32(raw[8:12])
	if version == 0 {
		return nil, 0, nil, corruptErr("format version 0 (writers start at 1)")
	}
	if version > maxVersion {
		return nil, 0, nil, fmt.Errorf("format version %d (this build reads 1..%d): %w", version, maxVersion, ErrVersion)
	}
	plen := binary.BigEndian.Uint64(raw[12:20])
	if uint64(len(raw)-headerLen) < plen {
		return nil, 0, nil, corruptErr("truncated payload: %d bytes after header, need %d", len(raw)-20, sha256.Size+plen)
	}
	payload, rest = raw[headerLen:headerLen+int(plen)], raw[headerLen+int(plen):]
	if actual := sha256.Sum256(payload); !bytes.Equal(actual[:], raw[20:headerLen]) {
		return nil, 0, nil, corruptErr("payload checksum mismatch")
	}
	return payload, version, rest, nil
}

// WriteFileFS atomically writes a framed, checksummed container. magic must
// be exactly 8 bytes.
func WriteFileFS(fsys fsim.FS, path, magic string, version uint32, payload []byte) error {
	if len(magic) != 8 {
		return fmt.Errorf("ckpt: magic %q must be 8 bytes, got %d", magic, len(magic))
	}
	header := AppendFrameHeader(make([]byte, 0, headerLen), magic, version, payload)
	return AtomicWriteFS(fsys, path, func(w io.Writer) error {
		if _, err := w.Write(header); err != nil {
			return err
		}
		_, err := w.Write(payload)
		return err
	})
}

// ReadFileFS reads and validates a container written by WriteFileFS,
// returning the payload and the stored version. It rejects everything
// ParseFrame rejects plus trailing garbage, each with a descriptive error;
// structural failures wrap ErrCorrupt so callers can tell damage from
// transient I/O trouble.
func ReadFileFS(fsys fsim.FS, path, magic string, maxVersion uint32) (payload []byte, version uint32, err error) {
	if len(magic) != 8 {
		return nil, 0, fmt.Errorf("ckpt: magic %q must be 8 bytes, got %d", magic, len(magic))
	}
	raw, err := fsys.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: read %s: %w", path, err)
	}
	payload, version, rest, err := ParseFrame(raw, magic, maxVersion)
	if err == nil && len(rest) > 0 {
		err = corruptErr("%d trailing bytes after payload", len(rest))
	}
	if err != nil {
		return nil, 0, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	return payload, version, nil
}
