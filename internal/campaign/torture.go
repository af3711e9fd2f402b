// Crash-point torture: enumerate a power cut at every mutating filesystem
// operation of a campaign and prove the store recovers.
//
// The protocol (DESIGN.md §8):
//
//  1. Record. Run the campaign once, uninterrupted, over a
//     fsim.RecordFS wrapping a fsim.MemFS. The tape captures every
//     mutating filesystem operation with its exact bytes; the MemFS holds
//     the reference artifacts (final log included).
//  2. Enumerate. For every mutating-operation index k in
//     1..fsim.CrashPoints(tape), fsim.CrashImageAt replays the tape into a
//     fresh MemFS, cuts the power at op k and returns the bytes a real
//     power cut at that instant leaves. Replay is byte shuffling, so
//     enumeration costs microseconds per crash point instead of a full
//     training run.
//  3. Verify. Reopen the store on each image: it must open, quarantine
//     only campaigns whose meta never became durable, and every surviving
//     store file must byte-match some completed write from the tape
//     (old-or-new, never torn).
//  4. Resume. Restart the campaign from the image and run it to
//     completion; the final log must be byte-identical to the reference.
//     Images are deduplicated by content digest first — distinct durable
//     states are few (they change only at directory syncs), so only a
//     handful of resumes pay for real training.
//
// The fsync-lie pass repeats the enumeration with file fsyncs acknowledged
// but dropped. Lying firmware can lose committed state — no software
// recipe survives it — so the invariant weakens to: the service still
// opens, damaged files are rejected descriptively (quarantine or FAILED
// park, never a mis-decode), and any campaign that does resume still
// reproduces the reference log byte-for-byte.
package campaign

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"time"

	"nasgo/internal/fsim"
)

// tortureStoreDir is the store root on the torture harness's MemFS.
const tortureStoreDir = "/campaigns"

// TortureReport summarizes an enumeration that held all invariants.
type TortureReport struct {
	// TapeLen is the recorded operation count; CrashPoints the enumerated
	// mutating-operation indexes (every one passed verification).
	TapeLen     int `json:"tapeLen"`
	CrashPoints int `json:"crashPoints"`
	// DistinctImages counts unique surviving durable states; LiveResumes
	// the ones that re-ran real training (the rest were memoized).
	DistinctImages int `json:"distinctImages"`
	LiveResumes    int `json:"liveResumes"`
	// EmptyStores counts crash points before the campaign's meta became
	// durable — the submission was never acknowledged, so nothing resumes.
	EmptyStores int `json:"emptyStores"`
	// Lie-mode tallies: the same crash points with fsyncs acknowledged
	// but dropped.
	LieCrashPoints int `json:"lieCrashPoints"`
	// LieUnreadable counts lie-mode images with dropped pages detected and
	// rejected (quarantined meta or FAILED-parked checkpoint).
	LieUnreadable int `json:"lieUnreadable"`
	// LieResumed counts lie-mode images that resumed to the reference log.
	LieResumed int `json:"lieResumed"`
}

// resumeOutcome is the memoized result of restarting from one image.
type resumeOutcome struct {
	campaigns int
	done      bool // campaigns > 0 and every one reached DONE
	logBytes  []byte
}

// TortureCampaign records spec's campaign once, then enumerates a power
// cut at every mutating filesystem operation, honest and fsync-lying,
// verifying recovery and resume byte-identity at each. opts are the
// supervisor options of the recording run and of every resume (FS is
// overridden per run; use short backoffs). It returns a report on success
// and the first violated invariant as an error.
func TortureCampaign(spec Spec, opts Options) (*TortureReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	// 1. Record the uninterrupted campaign.
	mem := fsim.NewMemFS()
	rec := fsim.NewRecordFS(mem)
	recOpts := opts
	recOpts.FS = rec
	mgr, quarantined, err := NewManager(tortureStoreDir, recOpts)
	if err != nil {
		return nil, err
	}
	if len(quarantined) != 0 {
		return nil, fmt.Errorf("campaign: torture recording store quarantined %v", quarantined)
	}
	mgr.Start()
	info, err := mgr.Submit(&spec)
	if err != nil {
		return nil, err
	}
	id := info.ID
	if err := settleAndDrain(mgr); err != nil {
		return nil, err
	}
	if got, _ := mgr.Get(id); got.Status != StatusDone {
		return nil, fmt.Errorf("campaign: torture recording ended %s (%s), want done", got.Status, got.Error)
	}
	refLog, err := mem.ReadFile(filepath.Join(tortureStoreDir, id, logFile))
	if err != nil {
		return nil, fmt.Errorf("campaign: torture reference log: %w", err)
	}
	tape := rec.Ops()
	versions := tapeVersions(tape)

	total, err := fsim.CrashPoints(tape)
	if err != nil {
		return nil, fmt.Errorf("campaign: torture: %w", err)
	}

	rep := &TortureReport{TapeLen: len(tape)}
	memo := map[string]*resumeOutcome{}

	// 2–4. The honest sweep demands strict recovery at every cut; the lie
	// sweep (fsyncs acknowledged, pages dropped at the cut) only that damage
	// is detected and that whatever resumes is still byte-identical.
	for _, lies := range []bool{false, true} {
		for k := int64(1); k <= total; k++ {
			img, err := fsim.CrashImageAt(tape, k, lies)
			if err != nil {
				return nil, fmt.Errorf("campaign: torture: %w", err)
			}
			unreadable, err := verifyImage(img, versions, lies)
			if err != nil {
				return nil, fmt.Errorf("campaign: crash point %d (lies=%v): %w", k, lies, err)
			}
			out, err := resumeMemo(memo, img, id, opts, rep)
			if err != nil {
				return nil, fmt.Errorf("campaign: crash point %d (lies=%v): %w", k, lies, err)
			}
			switch {
			case out.done && !bytes.Equal(out.logBytes, refLog):
				return nil, fmt.Errorf("campaign: crash point %d (lies=%v): resumed log differs from the uninterrupted run", k, lies)
			case lies:
				rep.LieCrashPoints++
				if unreadable {
					rep.LieUnreadable++
				}
				if out.done {
					rep.LieResumed++
				}
				continue
			case out.campaigns == 0:
				rep.EmptyStores++
			case !out.done:
				return nil, fmt.Errorf("campaign: crash point %d: resume did not complete", k)
			}
			rep.CrashPoints++
		}
	}
	return rep, nil
}

// tapeVersions reconstructs, for every path the tape renamed into, the
// complete contents of each successive version — the old-or-new oracle.
func tapeVersions(tape []fsim.Op) map[string][][]byte {
	bufs := map[int]*bytes.Buffer{}
	owner := map[string]int{} // recording-side name → handle
	out := map[string][][]byte{}
	for _, op := range tape {
		switch op.Kind {
		case fsim.OpCreate, fsim.OpCreateTemp:
			bufs[op.Handle] = &bytes.Buffer{}
			owner[op.Name] = op.Handle
		case fsim.OpWrite:
			if b := bufs[op.Handle]; b != nil {
				b.Write(op.Data)
			}
		case fsim.OpRename:
			if h, ok := owner[op.Src]; ok {
				out[op.Path] = append(out[op.Path], append([]byte(nil), bufs[h].Bytes()...))
				owner[op.Path] = h
			}
		}
	}
	return out
}

// verifyImage holds the recovery invariants of one crash image and reports
// whether the image contained detected damage. Honest images must recover
// strictly: the store opens, quarantine only ever hits campaigns whose meta
// never became durable, and every surviving store file loads and
// byte-matches a completed write. With lies (fsyncs acknowledged, pages
// dropped) committed state can be lost, so damage is tolerated as long as
// it is detected: the store must still open, and a file that still decodes
// as valid must be a complete version — never a mis-decode.
func verifyImage(img *fsim.MemFS, versions map[string][][]byte, lies bool) (unreadable bool, err error) {
	st, metas, quarantined, err := loadStore(img, tortureStoreDir)
	if err != nil {
		return false, fmt.Errorf("store failed to reopen: %w", err)
	}
	unreadable = len(quarantined) > 0
	for _, name := range quarantined {
		metaPath := filepath.Join(tortureStoreDir, name, metaFile)
		if _, err := img.Stat(metaPath); !lies && !errors.Is(err, fs.ErrNotExist) {
			return true, fmt.Errorf("campaign %s quarantined despite a surviving meta file (committed-state loss)", name)
		}
	}
	for _, m := range metas {
		for _, f := range []string{metaFile, ckptFile, logFile} {
			p := filepath.Join(tortureStoreDir, m.ID, f)
			raw, err := img.ReadFile(p)
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if err != nil {
				return unreadable, err
			}
			switch f { // metaFile: returned by the open ⇒ already validated
			case ckptFile:
				_, _, err = st.LoadCheckpoint(m.ID)
			case logFile:
				_, _, err = st.LoadLog(m.ID)
			}
			switch {
			case err != nil && !lies:
				return true, fmt.Errorf("%s unreadable: %w", p, err)
			case err != nil:
				unreadable = true
			case !slices.ContainsFunc(versions[p], func(v []byte) bool { return bytes.Equal(v, raw) }):
				return unreadable, fmt.Errorf("%s: content decodes as valid but matches no completed write (torn state or mis-decode)", p)
			}
		}
	}
	return unreadable, nil
}

// resumeMemo deduplicates resumes by image digest: identical surviving
// states restart identically, so only the first of each digest pays for
// real training. The digest is taken after the store janitor ran (inside
// verifyImage's loadStore), merging images that differ only in temp debris.
func resumeMemo(memo map[string]*resumeOutcome, img *fsim.MemFS, id string, opts Options, rep *TortureReport) (*resumeOutcome, error) {
	d := img.TreeDigest(tortureStoreDir)
	if out, ok := memo[d]; ok {
		return out, nil
	}
	rep.DistinctImages++
	out, err := tortureResume(img, id, opts)
	if err != nil {
		return nil, err
	}
	if out.done {
		rep.LiveResumes++
	}
	memo[d] = out
	return out, nil
}

// tortureResume restarts the campaign service on the surviving image and
// runs every recorded campaign to quiescence.
func tortureResume(img *fsim.MemFS, id string, opts Options) (*resumeOutcome, error) {
	opts.FS = img
	mgr, _, err := NewManager(tortureStoreDir, opts)
	if err != nil {
		return nil, fmt.Errorf("service failed to restart on surviving bytes: %w", err)
	}
	mgr.Start()
	if err := settleAndDrain(mgr); err != nil {
		return nil, err
	}
	out := &resumeOutcome{}
	infos := mgr.List()
	out.campaigns = len(infos)
	out.done = len(infos) > 0
	for _, in := range infos {
		if in.Status != StatusDone {
			out.done = false
		}
	}
	if out.done {
		b, err := img.ReadFile(filepath.Join(tortureStoreDir, id, logFile))
		if err != nil {
			return nil, fmt.Errorf("resumed campaign left no log: %w", err)
		}
		out.logBytes = b
	}
	return out, nil
}

// settleTimeout bounds the recording run and each post-crash resume.
const settleTimeout = 5 * time.Minute

// settleAndDrain polls until every campaign is quiescent (terminal or
// paused, runner stopped) or settleTimeout passes, then drains the manager.
func settleAndDrain(mgr *Manager) error {
	defer mgr.Drain()
	deadline := time.Now().Add(settleTimeout)
	for {
		settled := true
		for _, in := range mgr.List() {
			if in.Running || (!in.Status.Terminal() && in.Status != StatusPaused) {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("campaign: torture run did not settle within %v: %+v", settleTimeout, mgr.List())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
