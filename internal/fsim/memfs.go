package fsim

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// MemFS is an in-memory filesystem that models crash durability the way a
// POSIX filesystem over a volatile page cache does:
//
//   - Every file has a visible content (what readers see now) and a
//     durable content (what survives a power cut). File.Sync copies
//     visible to durable.
//   - Every namespace mutation (create, rename, remove, mkdir) is visible
//     immediately but durable only once the parent directory is fsynced
//     via SyncDir — the same rule that makes ckpt.AtomicWriteFS's
//     sync-rename-syncdir sequence necessary on real hardware.
//
// CrashImage returns a new MemFS holding exactly the durable state: the
// surviving bytes a process restarted after a power cut would find. MemFS
// is safe for concurrent use; temp-file names are deterministic
// (sequential), so a replayed run touches identical paths.
type MemFS struct {
	mu       sync.Mutex
	files    map[string]*memNode
	dirs     map[string]bool
	durFiles map[string]*memNode
	durDirs  map[string]bool
	tmpSeq   int
}

// memNode is one file inode: visible bytes plus the durable bytes as of
// the last successful Sync.
type memNode struct {
	data   []byte
	synced []byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		files:    map[string]*memNode{},
		dirs:     map[string]bool{},
		durFiles: map[string]*memNode{},
		durDirs:  map[string]bool{},
	}
}

func clean(name string) string { return filepath.Clean(name) }

// rootDir reports the implicit always-existing directories.
func rootDir(name string) bool { return name == "." || name == "/" || name == "" }

func (m *MemFS) dirExistsLocked(dir string) bool {
	return rootDir(dir) || m.dirs[clean(dir)]
}

func pathErr(op, path string, err error) error {
	return &fs.PathError{Op: op, Path: path, Err: err}
}

// Create creates or truncates a visible file. The previous durable content
// (if any) is untouched until the next Sync — a crash right after an
// in-place truncate still shows the old bytes.
func (m *MemFS) Create(name string) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExistsLocked(filepath.Dir(name)) {
		return nil, pathErr("create", name, fs.ErrNotExist)
	}
	if m.dirs[name] {
		return nil, pathErr("create", name, fmt.Errorf("is a directory"))
	}
	node, ok := m.files[name]
	if !ok {
		node = &memNode{}
		m.files[name] = node
	}
	node.data = nil
	return &memFile{fs: m, node: node, name: name, writable: true}, nil
}

// CreateTemp mirrors os.CreateTemp but with deterministic sequential
// suffixes, so replaying the same operation sequence touches the same
// temp-file names.
func (m *MemFS) CreateTemp(dir, pattern string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExistsLocked(dir) {
		return nil, pathErr("createtemp", dir, fs.ErrNotExist)
	}
	prefix, suffix := pattern, ""
	if i := strings.LastIndexByte(pattern, '*'); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for {
		m.tmpSeq++
		name := clean(filepath.Join(dir, fmt.Sprintf("%s%06d%s", prefix, m.tmpSeq, suffix)))
		if _, exists := m.files[name]; exists {
			continue
		}
		node := &memNode{}
		m.files[name] = node
		return &memFile{fs: m, node: node, name: name, writable: true}, nil
	}
}

// Open opens a file read-only over a snapshot of its current content.
func (m *MemFS) Open(name string) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.files[name]
	if !ok {
		return nil, pathErr("open", name, fs.ErrNotExist)
	}
	return &memFile{fs: m, node: node, name: name, snapshot: append([]byte(nil), node.data...)}, nil
}

// ReadFile returns a copy of the file's visible content.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.files[name]
	if !ok {
		return nil, pathErr("readfile", name, fs.ErrNotExist)
	}
	return append([]byte(nil), node.data...), nil
}

// Rename atomically repoints newpath at oldpath's inode. The change is
// visible immediately and durable only after SyncDir on the parent; until
// then, a crash leaves the old entry — never a mix.
func (m *MemFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = clean(oldpath), clean(newpath)
	m.mu.Lock()
	defer m.mu.Unlock()
	node, ok := m.files[oldpath]
	if !ok {
		return pathErr("rename", oldpath, fs.ErrNotExist)
	}
	if !m.dirExistsLocked(filepath.Dir(newpath)) {
		return pathErr("rename", newpath, fs.ErrNotExist)
	}
	if m.dirs[newpath] {
		return pathErr("rename", newpath, fmt.Errorf("is a directory"))
	}
	delete(m.files, oldpath)
	m.files[newpath] = node
	return nil
}

// Remove deletes a file or an empty directory from the visible namespace;
// durable removal happens at the parent's next SyncDir.
func (m *MemFS) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		delete(m.files, name)
		return nil
	}
	if m.dirs[name] {
		for p := range m.files {
			if filepath.Dir(p) == name {
				return pathErr("remove", name, fmt.Errorf("directory not empty"))
			}
		}
		for p := range m.dirs {
			if p != name && filepath.Dir(p) == name {
				return pathErr("remove", name, fmt.Errorf("directory not empty"))
			}
		}
		delete(m.dirs, name)
		return nil
	}
	return pathErr("remove", name, fs.ErrNotExist)
}

// MkdirAll creates name and any missing ancestors in the visible
// namespace. Like every namespace mutation, the entries become durable at
// the parent's SyncDir.
func (m *MemFS) MkdirAll(name string, _ fs.FileMode) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; ok {
		return pathErr("mkdir", name, fmt.Errorf("not a directory"))
	}
	var missing []string
	for d := name; !rootDir(d) && !m.dirs[d]; d = filepath.Dir(d) {
		if _, ok := m.files[d]; ok {
			return pathErr("mkdir", d, fmt.Errorf("not a directory"))
		}
		missing = append(missing, d)
	}
	for _, d := range missing {
		m.dirs[d] = true
	}
	return nil
}

// ReadDir lists the visible direct children of dir, sorted by name.
func (m *MemFS) ReadDir(name string) ([]fs.DirEntry, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExistsLocked(name) {
		return nil, pathErr("readdir", name, fs.ErrNotExist)
	}
	var out []fs.DirEntry
	for p, node := range m.files {
		if filepath.Dir(p) == name {
			out = append(out, memDirEntry{name: filepath.Base(p), size: int64(len(node.data))})
		}
	}
	for p := range m.dirs {
		if p != name && filepath.Dir(p) == name {
			out = append(out, memDirEntry{name: filepath.Base(p), dir: true})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

// Stat describes a visible file or directory.
func (m *MemFS) Stat(name string) (fs.FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if node, ok := m.files[name]; ok {
		return memFileInfo{name: filepath.Base(name), size: int64(len(node.data))}, nil
	}
	if m.dirExistsLocked(name) {
		return memFileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, pathErr("stat", name, fs.ErrNotExist)
}

// SyncDir makes dir's current direct entries durable: created, renamed,
// and removed children survive a crash from here on. The directory itself
// and its ancestors are promoted too (a directory that can be fsynced
// exists). File content durability is separate — that is File.Sync.
func (m *MemFS) SyncDir(dir string) error {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirExistsLocked(dir) {
		return pathErr("syncdir", dir, fs.ErrNotExist)
	}
	for d := dir; !rootDir(d); d = filepath.Dir(d) {
		m.durDirs[d] = true
	}
	for p := range m.durFiles {
		if filepath.Dir(p) == dir {
			if _, ok := m.files[p]; !ok {
				delete(m.durFiles, p)
			}
		}
	}
	for p := range m.durDirs {
		if p != dir && filepath.Dir(p) == dir && !m.dirs[p] {
			delete(m.durDirs, p)
		}
	}
	for p, node := range m.files {
		if filepath.Dir(p) == dir {
			m.durFiles[p] = node
		}
	}
	for p := range m.dirs {
		if p != dir && filepath.Dir(p) == dir {
			m.durDirs[p] = true
		}
	}
	return nil
}

// CrashImage returns the filesystem state a power cut at this instant
// would leave behind: only durable directory entries, each file holding
// only its synced bytes. The receiver is unchanged, so a harness can take
// several images from one timeline.
func (m *MemFS) CrashImage() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMemFS()
	for p := range m.durDirs {
		img.dirs[p] = true
		img.durDirs[p] = true
	}
	for p, node := range m.durFiles {
		synced := append([]byte(nil), node.synced...)
		img.files[p] = &memNode{data: synced, synced: append([]byte(nil), synced...)}
		img.durFiles[p] = img.files[p]
	}
	img.tmpSeq = m.tmpSeq
	return img
}

// TreeDigest hashes the whole visible tree under root — every directory
// and file path, file size and file byte, in ReadDir's sorted order — so
// equal digests mean equal trees. A missing root hashes as empty.
func (m *MemFS) TreeDigest(root string) string {
	h := sha256.New()
	var walk func(dir string)
	walk = func(dir string) {
		entries, err := m.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			p := filepath.Join(dir, e.Name())
			if e.IsDir() {
				fmt.Fprintf(h, "d %s\n", p)
				walk(p)
				continue
			}
			b, _ := m.ReadFile(p)
			fmt.Fprintf(h, "f %s %d\n", p, len(b))
			h.Write(b)
		}
	}
	walk(root)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// memFile is an open MemFS file: writable (Create/CreateTemp) or a
// read-only snapshot (Open).
type memFile struct {
	fs       *MemFS
	node     *memNode
	name     string
	writable bool
	snapshot []byte // read view for read-only files
	off      int
	closed   bool
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, pathErr("read", f.name, fs.ErrClosed)
	}
	src := f.snapshot
	if f.writable {
		src = f.node.data
	}
	if f.off >= len(src) {
		return 0, io.EOF
	}
	n := copy(p, src[f.off:])
	f.off += n
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return 0, pathErr("write", f.name, fs.ErrClosed)
	}
	if !f.writable {
		return 0, pathErr("write", f.name, fs.ErrPermission)
	}
	f.node.data = append(f.node.data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return pathErr("sync", f.name, fs.ErrClosed)
	}
	if f.writable {
		f.node.synced = append([]byte(nil), f.node.data...)
	}
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.closed {
		return pathErr("close", f.name, fs.ErrClosed)
	}
	f.closed = true
	return nil
}

// memDirEntry and memFileInfo are the minimal fs.DirEntry / fs.FileInfo
// views over MemFS state.
type memDirEntry struct {
	name string
	dir  bool
	size int64
}

func (e memDirEntry) Name() string { return e.name }
func (e memDirEntry) IsDir() bool  { return e.dir }
func (e memDirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e memDirEntry) Info() (fs.FileInfo, error) {
	return memFileInfo{name: e.name, dir: e.dir, size: e.size}, nil
}

type memFileInfo struct {
	name string
	dir  bool
	size int64
}

func (i memFileInfo) Name() string { return i.name }
func (i memFileInfo) Size() int64  { return i.size }
func (i memFileInfo) Mode() fs.FileMode {
	if i.dir {
		return fs.ModeDir | 0o755
	}
	return 0o644
}
func (i memFileInfo) ModTime() time.Time { return time.Time{} }
func (i memFileInfo) IsDir() bool        { return i.dir }
func (i memFileInfo) Sys() any           { return nil }
