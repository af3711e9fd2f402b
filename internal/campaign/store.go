package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
	"nasgo/internal/search"
)

// Status is a campaign's lifecycle state. Transitions:
//
//	RUNNING ──boundary──▶ RUNNING (checkpoint persisted)
//	RUNNING ──pause────▶ PAUSED ──resume──▶ RUNNING
//	RUNNING ──disk full▶ PAUSED               (ENOSPC persisting state;
//	                                           resume after freeing space)
//	RUNNING ──cancel───▶ CANCELLED            (terminal)
//	RUNNING ──drained──▶ RUNNING              (resumes on next Open)
//	RUNNING ──panic×N──▶ FAILED               (terminal, error recorded)
//	RUNNING ──complete─▶ DONE                 (terminal, log persisted)
type Status string

const (
	StatusRunning   Status = "running"
	StatusPaused    Status = "paused"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status accepts no further transitions.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Meta is the durable per-campaign record. It is small and rewritten
// whole at every status change through the same atomic checksummed
// container as search checkpoints, so a reader observes either the
// previous consistent state or the next, never a torn one.
type Meta struct {
	ID   string `json:"id"`
	Spec Spec   `json:"spec"`
	// Status is the supervisor state the campaign should resume into
	// after a process restart: RUNNING campaigns are relaunched, PAUSED
	// ones wait, terminal ones only serve reads.
	Status Status `json:"status"`
	// Error is the recorded failure for FAILED campaigns, and the most
	// recent recovered panic for RUNNING ones (empty when healthy).
	Error string `json:"error,omitempty"`
	// Restarts counts supervisor restarts after panics over the
	// campaign's lifetime.
	Restarts int `json:"restarts,omitempty"`
	// Allocations counts walltime allocations whose checkpoint has been
	// persisted, as of the last status change; the checkpoint leads it.
	Allocations int `json:"allocations"`
}

// Store file names inside each campaign directory, and the meta container
// framing (see internal/ckpt for the layout).
const (
	metaFile  = "meta.nascam"
	ckptFile  = "search.ckpt"
	logFile   = "log.json"
	metaMagic = "nasgocam"
	metaVer   = 1
)

// Store is the crash-consistent campaign directory: one subdirectory per
// campaign holding its meta record, latest search checkpoint, and final
// log. All writes go through internal/ckpt's atomic rename + directory
// fsync, so a kill at any byte leaves every campaign readable. Store does
// no locking; the Manager serializes access per campaign.
type Store struct {
	root string
	fsys fsim.FS
}

// OpenStoreFS opens (creating if needed) the campaign store rooted at dir
// on fsys (production passes fsim.OS; the fault-torture harness crashes and
// corrupts a store through it) and runs crash janitoring: stale temp files
// from interrupted atomic writes are removed. Campaign directories whose
// meta record is missing or structurally damaged are left on disk but
// reported in the returned quarantined slice — robustness means a damaged
// campaign can never prevent the service from starting. A transient read
// error or a meta record from a newer build is not damage: quarantining
// would silently drop a healthy campaign, so the open fails with that error
// instead (see surfaces).
func OpenStoreFS(fsys fsim.FS, dir string) (st *Store, quarantined []string, err error) {
	st, _, quarantined, err = loadStore(fsys, dir)
	return st, quarantined, err
}

// loadStore is OpenStoreFS that also returns every readable meta record,
// ID-sorted: the store's one read of each, which NewManager builds on.
func loadStore(fsys fsim.FS, dir string) (*Store, []Meta, []string, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: create store %s: %w", dir, err)
	}
	s := &Store{root: dir, fsys: fsys}
	entries, err := fsys.ReadDir(dir) // sorted, so metas and quarantined are too
	if err != nil {
		return nil, nil, nil, fmt.Errorf("campaign: read store %s: %w", dir, err)
	}
	var metas []Meta
	var quarantined []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cdir := filepath.Join(dir, e.Name())
		files, err := fsys.ReadDir(cdir)
		var meta Meta
		if err == nil {
			for _, f := range files {
				if strings.Contains(f.Name(), ".tmp") {
					fsys.Remove(filepath.Join(cdir, f.Name()))
				}
			}
			meta, err = s.LoadMeta(e.Name())
		}
		switch {
		case surfaces(err):
			return nil, nil, nil, fmt.Errorf("campaign: open store %s: campaign %s: %w", dir, e.Name(), err)
		case err != nil:
			quarantined = append(quarantined, e.Name())
		default:
			metas = append(metas, meta)
		}
	}
	return s, metas, quarantined, nil
}

// surfaces reports whether a campaign read error must be returned to the
// caller rather than quarantining the campaign: transient I/O is retryable
// and a future-format file is good data this build cannot read.
func surfaces(err error) bool {
	return ckpt.IsTransient(err) || errors.Is(err, ckpt.ErrVersion)
}

// NextID returns the smallest unused sequential campaign ID. IDs are
// stable across restarts because they are derived from the directories on
// disk, never from in-memory counters.
func (s *Store) NextID() (string, error) {
	entries, err := s.fsys.ReadDir(s.root)
	if err != nil {
		return "", fmt.Errorf("campaign: read store: %w", err)
	}
	max := 0
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "c%08d", &n); err == nil && n > max {
			max = n
		}
	}
	return fmt.Sprintf("c%08d", max+1), nil
}

// Create allocates a campaign directory for meta.ID and persists the meta
// record. The directory is fsynced into the store root before the meta
// write, so a crash between the two leaves an empty quarantined directory,
// never a half-registered campaign. A meta write that fails removes the
// directory again, so a store that refuses writes does not gain an empty
// one per rejected submission.
func (s *Store) Create(meta Meta) error {
	if meta.ID == "" {
		return fmt.Errorf("campaign: create with empty ID")
	}
	cdir := filepath.Join(s.root, meta.ID)
	if _, err := s.fsys.Stat(cdir); err == nil {
		return fmt.Errorf("campaign: %s already exists", meta.ID)
	}
	if err := s.fsys.MkdirAll(cdir, 0o755); err != nil {
		return fmt.Errorf("campaign: create dir for %s: %w", meta.ID, err)
	}
	if err := ckpt.SyncDirFS(s.fsys, s.root); err != nil {
		return err
	}
	if err := s.SaveMeta(meta); err != nil {
		_ = s.fsys.Remove(cdir)
		return err
	}
	return nil
}

// SaveMeta atomically rewrites a campaign's meta record.
func (s *Store) SaveMeta(meta Meta) error {
	payload, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("campaign: marshal meta %s: %w", meta.ID, err)
	}
	return ckpt.WriteFileFS(s.fsys, filepath.Join(s.root, meta.ID, metaFile), metaMagic, metaVer, payload)
}

// LoadMeta reads and validates a campaign's meta record.
func (s *Store) LoadMeta(id string) (Meta, error) {
	payload, _, err := ckpt.ReadFileFS(s.fsys, filepath.Join(s.root, id, metaFile), metaMagic, metaVer)
	if err != nil {
		return Meta{}, err
	}
	var m Meta
	if err := json.Unmarshal(payload, &m); err != nil {
		return Meta{}, fmt.Errorf("campaign: decode meta %s: %w", id, err)
	}
	if m.ID != id {
		return Meta{}, fmt.Errorf("campaign: meta in %s names campaign %q", id, m.ID)
	}
	switch m.Status {
	case StatusRunning, StatusPaused, StatusDone, StatusFailed, StatusCancelled:
	default:
		return Meta{}, fmt.Errorf("campaign: meta %s has unknown status %q", id, m.Status)
	}
	if err := m.Spec.Validate(); err != nil {
		return Meta{}, fmt.Errorf("campaign: meta %s: %w", id, err)
	}
	return m, nil
}

// SaveCheckpoint persists the campaign's latest search checkpoint — the
// resume point a process restart loses at most one allocation relative to.
func (s *Store) SaveCheckpoint(id string, ck *search.Checkpoint) error {
	return ck.WriteFileFS(s.fsys, filepath.Join(s.root, id, ckptFile))
}

// LoadCheckpoint loads the campaign's latest checkpoint; ok is false if no
// checkpoint has been persisted yet (the campaign restarts from scratch —
// only its first allocation of work is lost).
func (s *Store) LoadCheckpoint(id string) (*search.Checkpoint, bool, error) {
	path := filepath.Join(s.root, id, ckptFile)
	if _, err := s.fsys.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	ck, err := search.LoadCheckpointFS(s.fsys, path)
	if err != nil {
		return nil, false, err
	}
	return ck, true, nil
}

// SaveLog persists a completed campaign's final search log.
func (s *Store) SaveLog(id string, log *search.Log) error {
	return log.WriteJSONFS(s.fsys, s.logPath(id))
}

// logPath returns the path of the campaign's final log file.
func (s *Store) logPath(id string) string {
	return filepath.Join(s.root, id, logFile)
}

// LoadLog loads a completed campaign's final log; ok is false when the
// campaign has not completed.
func (s *Store) LoadLog(id string) (*search.Log, bool, error) {
	path := s.logPath(id)
	if _, err := s.fsys.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	log, err := search.LoadLogFS(s.fsys, path)
	if err != nil {
		return nil, false, err
	}
	return log, true, nil
}
