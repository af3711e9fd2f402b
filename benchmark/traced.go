package main

import (
	"bufio"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nasgo/internal/fsim"
	"nasgo/internal/nasbench"
	"nasgo/internal/trace"
)

// This file is the traced pass's instruments. All of them sit outside the
// program under test: spans are taken around the benchmark's own calls, and
// the two wrappers use seams the code already exposes (fsim.FS and
// evaluator.RewardSource).

// span is one timed interval: Parent is the span that caused it (0 for a
// workload operation), Op the workload operation — one search, tournament,
// campaign — it belongs to. Times are seconds since the pass began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// spanLog keeps spans in memory until the pass ends. A nil *spanLog records
// nothing, so code shared with the end-to-end pass calls it freely.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// op is the workload operation in progress; calls made on its behalf
	// (filesystem operations, HTTP requests) take it as their parent.
	op int
}

func (s *spanLog) since(t time.Time) float64 { return t.Sub(s.t0).Seconds() }

// beginOp opens a workload-operation span and makes it current.
func (s *spanLog) beginOp(name string) int {
	if s == nil {
		return 0
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.spans) + 1
	s.spans = append(s.spans, span{ID: id, Op: id, Name: name, Start: s.since(now)})
	s.op = id
	return id
}

func (s *spanLog) endOp(id int) {
	if s == nil {
		return
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans[id-1].End = s.since(now)
	s.op = 0
}

// record appends a finished child span of the current operation.
func (s *spanLog) record(name string, start time.Time) {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, span{ID: len(s.spans) + 1, Parent: s.op, Op: s.op, Name: name,
		Start: s.since(start), End: s.since(end)})
}

// selfFrac is the share of the named operations' time that no child span
// covers: a span's self time is its duration minus its children's.
func (s *spanLog) selfFrac(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	total, children := 0.0, 0.0
	ops := map[int]bool{}
	for _, sp := range s.spans {
		if sp.Parent == 0 && sp.Name == name {
			ops[sp.ID] = true
			total += sp.End - sp.Start
		}
	}
	for _, sp := range s.spans {
		if ops[sp.Parent] {
			children += sp.End - sp.Start
		}
	}
	if total == 0 {
		return 0
	}
	return (total - children) / total
}

func (s *spanLog) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingFS times every call through the fsim seam. fsim.RecordFS would do
// the counting but is single-writer and keeps every byte written; a
// campaign store is written by the runner while handlers read it.
type timingFS struct {
	inner fsim.FS
	spans *spanLog

	mu       sync.Mutex
	busy     float64 // seconds inside filesystem calls
	syncs    int     // File.Sync + SyncDir
	written  int64   // bytes
	syncSecs []float64
	// walSecs is the write+sync time on WAL segment files, walAppends the
	// records appended (one sync each).
	walSecs    float64
	walAppends int
}

func newTimingFS(spans *spanLog) *timingFS { return &timingFS{inner: fsim.OS, spans: spans} }

func isWAL(name string) bool {
	base := filepath.Base(name)
	return strings.HasPrefix(base, "seg-") && strings.HasSuffix(base, ".wal")
}

// note accounts one finished call.
func (t *timingFS) note(op, name string, start time.Time, sync bool, bytes int) {
	d := time.Since(start).Seconds()
	t.mu.Lock()
	t.busy += d
	t.written += int64(bytes)
	if sync {
		t.syncs++
		t.syncSecs = append(t.syncSecs, d)
	}
	if isWAL(name) && (sync || bytes > 0) {
		t.walSecs += d
		if sync {
			t.walAppends++
		}
	}
	t.mu.Unlock()
	t.spans.record("fsim."+op, start)
}

func (t *timingFS) file(f fsim.File, err error) (fsim.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Create(name string) (fsim.File, error) {
	defer t.note("create", name, time.Now(), false, 0)
	return t.file(t.inner.Create(name))
}

func (t *timingFS) CreateTemp(dir, pattern string) (fsim.File, error) {
	defer t.note("create", pattern, time.Now(), false, 0)
	return t.file(t.inner.CreateTemp(dir, pattern))
}

func (t *timingFS) Open(name string) (fsim.File, error) {
	defer t.note("open", name, time.Now(), false, 0)
	return t.file(t.inner.Open(name))
}

func (t *timingFS) ReadFile(name string) ([]byte, error) {
	defer t.note("read", name, time.Now(), false, 0)
	return t.inner.ReadFile(name)
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	defer t.note("rename", newpath, time.Now(), false, 0)
	return t.inner.Rename(oldpath, newpath)
}

func (t *timingFS) Remove(name string) error {
	defer t.note("remove", name, time.Now(), false, 0)
	return t.inner.Remove(name)
}

func (t *timingFS) MkdirAll(name string, perm fs.FileMode) error {
	defer t.note("mkdir", name, time.Now(), false, 0)
	return t.inner.MkdirAll(name, perm)
}

func (t *timingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	defer t.note("readdir", name, time.Now(), false, 0)
	return t.inner.ReadDir(name)
}

func (t *timingFS) Stat(name string) (fs.FileInfo, error) {
	defer t.note("stat", name, time.Now(), false, 0)
	return t.inner.Stat(name)
}

func (t *timingFS) SyncDir(dir string) error {
	defer t.note("syncdir", dir, time.Now(), true, 0)
	return t.inner.SyncDir(dir)
}

type timingFile struct {
	fsim.File
	fs *timingFS
}

func (f *timingFile) Read(p []byte) (int, error) {
	defer f.fs.note("read", f.Name(), time.Now(), false, 0)
	return f.File.Read(p)
}

func (f *timingFile) Write(p []byte) (int, error) {
	defer f.fs.note("write", f.Name(), time.Now(), false, len(p))
	return f.File.Write(p)
}

func (f *timingFile) Sync() error {
	defer f.fs.note("sync", f.Name(), time.Now(), true, 0)
	return f.File.Sync()
}

func (f *timingFile) Close() error {
	defer f.fs.note("close", f.Name(), time.Now(), false, 0)
	return f.File.Close()
}

// emit reports the filesystem rows for a pass that performed ops workload
// operations in wall seconds.
func (t *timingFS) emit(r *run, ops int, wall float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := scaleBy(t.syncSecs, 1e3)
	r.add(single("fsim.syncs_per_op", "count", float64(t.syncs)/float64(ops)),
		single("fsim.write_kb_per_op", "KB", float64(t.written)/1024/float64(ops)),
		timing("fsim.sync_ms_p50", "ms", ms),
		single("fsim.sync_ms_p99", "ms", quantile(ms, 0.99)),
		single("fsim.io_frac", "fraction", t.busy/wall))
}

// none reports the rows of a layer that did no work on this workload: every
// pass prints every per-layer metric, and "nothing, n = 0" is the
// measurement.
func (r *run) none(unit string, names ...string) {
	for _, n := range names {
		r.add(Metric{Name: n, Unit: unit})
	}
}

// noFS reports the filesystem rows of a workload that writes nothing.
func noFS(r *run) {
	r.none("count", "fsim.syncs_per_op")
	r.none("KB", "fsim.write_kb_per_op")
	r.none("ms", "fsim.sync_ms_p50", "fsim.sync_ms_p99")
	r.none("fraction", "fsim.io_frac")
}

// countingSource counts reward lookups on their way to the table. It does
// not time them: two clock reads cost more than the map lookup they would
// bracket, so nasbench.lookup_ns comes from direct calls instead.
type countingSource struct {
	tbl *nasbench.Table
	n   atomic.Int64
}

func (c *countingSource) Metric(key string) (float64, bool) {
	c.n.Add(1)
	return c.tbl.Metric(key)
}

// traceCounts are exact event counts from the program's own virtual-clock
// trace. Worker-pool and checkpoint-mark events are left out: they are the
// two categories that legitimately differ between hosts and between a
// chained and an uninterrupted run.
type traceCounts struct {
	events, dispatches, jobs, retries, delivers, rounds int
}

func (c *traceCounts) add(events []trace.Event) {
	for i := range events {
		ev := &events[i]
		if ev.Cat == trace.CatPool || ev.Cat == trace.CatCkpt {
			continue
		}
		c.events++
		switch ev.Name {
		case trace.EvDispatch:
			c.dispatches++
		case trace.EvJobSubmit:
			c.jobs++
		case trace.EvJobRestart:
			c.retries++
		case trace.EvDeliver:
			c.delivers++
		case trace.EvPhase:
			if ev.Detail == "eval" {
				c.rounds++
			}
		}
	}
}

// ppoEpochs is rl.Config's default epoch count, which every workload runs
// with: one agent round delivers this many averaged gradients.
const ppoEpochs = 4

// updates is the number of whole PPO updates the delivered gradients make.
func (c *traceCounts) updates() float64 { return float64(c.delivers) / ppoEpochs }

// emit reports the count rows shared by every workload.
func (c *traceCounts) emit(r *run) {
	r.add(single("trace.events", "count", float64(c.events)),
		single("hpc.events", "count", float64(c.dispatches)),
		single("balsam.jobs", "count", float64(c.jobs)),
		single("balsam.retries", "count", float64(c.retries)),
		single("ps.delivers", "count", float64(c.delivers)),
		single("rl.updates", "count", c.updates()))
}

// evalCounts reports the evaluator's count rows: estimations delivered,
// cache hits included, and the share the per-agent caches served.
func evalCounts(r *run, evals, hits int) {
	frac := 0.0
	if evals > 0 {
		frac = float64(hits) / float64(evals)
	}
	r.add(single("evaluator.evals", "count", float64(evals)),
		single("evaluator.cache_hits", "count", float64(hits)),
		single("evaluator.cache_hit_frac", "fraction", frac))
}
