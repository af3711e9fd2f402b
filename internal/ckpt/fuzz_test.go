package ckpt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"nasgo/internal/fsim"
)

// frame builds a container image by hand, mirroring WriteFile's layout.
func frame(magic string, version uint32, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	out := make([]byte, 0, headerLen+len(payload))
	out = append(out, magic...)
	out = binary.BigEndian.AppendUint32(out, version)
	out = binary.BigEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// FuzzReadFile throws arbitrary bytes at the container parser. ReadFile
// must never panic or over-read; when it does accept an input, the header
// fields must be internally consistent and the accepted payload must
// round-trip through WriteFile to the identical file image.
func FuzzReadFile(f *testing.F) {
	const magic = "testmagc"
	valid := frame(magic, 3, []byte("checkpoint payload"))
	f.Add(valid)
	f.Add(frame(magic, 1, nil))
	f.Add(valid[:len(valid)-1])            // truncated payload
	f.Add(valid[:headerLen-1])             // truncated header
	f.Add(append(valid, 'x'))              // trailing garbage
	f.Add(frame(magic, 0, []byte("v0")))   // version below the floor
	f.Add(frame(magic, 9, []byte("v9")))   // version above maxVersion
	f.Add(frame("wrongmgc", 1, []byte{1})) // bad magic
	huge := frame(magic, 1, []byte("short"))
	binary.BigEndian.PutUint64(huge[12:20], 1<<62) // length field lies
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, version, err := ReadFileFS(fsim.OS, path, magic, 5)
		if err != nil {
			return
		}
		if version == 0 || version > 5 {
			t.Fatalf("accepted out-of-range version %d", version)
		}
		if len(data) != headerLen+len(payload) {
			t.Fatalf("accepted %d-byte file with %d-byte payload", len(data), len(payload))
		}
		if plen := binary.BigEndian.Uint64(data[12:20]); plen != uint64(len(payload)) {
			t.Fatalf("payload length %d disagrees with header %d", len(payload), plen)
		}
		// An accepted container re-encodes to the same bytes.
		again := filepath.Join(t.TempDir(), "again.ckpt")
		if err := WriteFileFS(fsim.OS, again, magic, version, payload); err != nil {
			t.Fatalf("rewrite accepted container: %v", err)
		}
		rewritten, err := os.ReadFile(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten, data) {
			t.Fatal("accepted container does not round-trip through WriteFile")
		}
	})
}
