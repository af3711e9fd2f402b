package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime" // the package has a type named runtime
	"syscall"
	"testing"

	"nasgo/internal/candle"
	"nasgo/internal/ckpt"
	"nasgo/internal/fsim"
	"nasgo/internal/search"
	"nasgo/internal/space"
)

func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, quarantined, err := OpenStoreFS(fsim.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 0 {
		t.Fatalf("unexpected quarantined campaigns: %v", quarantined)
	}
	return st
}

func TestStoreMetaRoundTrip(t *testing.T) {
	st := openStore(t, t.TempDir())
	id, err := st.NextID()
	if err != nil {
		t.Fatal(err)
	}
	if id != "c00000001" {
		t.Fatalf("first ID %q", id)
	}
	meta := Meta{ID: id, Spec: testSpec(), Status: StatusRunning}
	if err := st.Create(meta); err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec != meta.Spec || got.Status != StatusRunning {
		t.Fatalf("loaded %+v", got)
	}
	// IDs advance past existing campaigns even across reopen.
	st2 := openStore(t, st.root)
	if next, _ := st2.NextID(); next != "c00000002" {
		t.Fatalf("next ID after reopen %q", next)
	}
	// Double-create is rejected.
	if err := st.Create(meta); err == nil {
		t.Fatal("duplicate Create succeeded")
	}
	// Status flips persist.
	meta.Status = StatusPaused
	meta.Restarts = 2
	if err := st.SaveMeta(meta); err != nil {
		t.Fatal(err)
	}
	got, err = st.LoadMeta(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusPaused || got.Restarts != 2 {
		t.Fatalf("after SaveMeta: %+v", got)
	}
}

func TestStoreQuarantinesCorruptMeta(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	good := Meta{ID: "c00000001", Spec: testSpec(), Status: StatusRunning}
	if err := st.Create(good); err != nil {
		t.Fatal(err)
	}
	// A campaign directory with a torn/garbage meta record must not
	// prevent the store from opening, and must not appear in List.
	bad := filepath.Join(dir, "c00000002")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bad, metaFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Leftover temp files from a killed atomic write are janitored away.
	tmp := filepath.Join(dir, "c00000001", metaFile+".tmp12345")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, quarantined, err := OpenStoreFS(fsim.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 1 || quarantined[0] != "c00000002" {
		t.Fatalf("quarantined = %v, want [c00000002]", quarantined)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived janitoring")
	}
	metas, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].ID != "c00000001" {
		t.Fatalf("List = %+v", metas)
	}
	// The quarantined directory is preserved for inspection, and its ID
	// is never reissued.
	if next, _ := st2.NextID(); next != "c00000003" {
		t.Fatalf("next ID %q, want c00000003", next)
	}
}

// readEIOFS fails every read of the named store file (metaFile, ckptFile)
// with EIO; everything else passes through.
type readEIOFS struct {
	fsim.FS
	file string
}

func (r readEIOFS) ReadFile(name string) ([]byte, error) {
	if filepath.Base(name) == r.file {
		return nil, fmt.Errorf("fsim: read %s: %w", name, syscall.EIO)
	}
	return r.FS.ReadFile(name)
}

// TestStoreOpenSurfacesTransientAndFutureMeta pins the other two thirds of
// the error taxonomy at store open: a transient read error and a meta
// record from a newer build are not damage, so they fail the open (and
// List) with a classifiable error instead of quarantining — and thereby
// silently dropping — a healthy campaign.
func TestStoreOpenSurfacesTransientAndFutureMeta(t *testing.T) {
	mem := fsim.NewMemFS()
	st, _, err := OpenStoreFS(mem, "/store")
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{ID: "c00000001", Spec: testSpec(), Status: StatusRunning}
	if err := st.Create(meta); err != nil {
		t.Fatal(err)
	}

	_, quarantined, err := OpenStoreFS(readEIOFS{mem, metaFile}, "/store")
	if !ckpt.IsTransient(err) || len(quarantined) != 0 {
		t.Fatalf("transient meta read: quarantined %v, err %v — want a transient open error", quarantined, err)
	}
	if _, err := (&Store{root: "/store", fsys: readEIOFS{mem, metaFile}}).List(); !ckpt.IsTransient(err) {
		t.Fatalf("transient meta read in List: %v", err)
	}
	// The fault gone, the campaign is still there.
	st, quarantined, err = OpenStoreFS(mem, "/store")
	if err != nil || len(quarantined) != 0 {
		t.Fatalf("reopen after transient fault: quarantined %v, err %v", quarantined, err)
	}
	if metas, err := st.List(); err != nil || len(metas) != 1 {
		t.Fatalf("List after transient fault = %+v, %v", metas, err)
	}

	payload, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("/store", meta.ID, metaFile)
	if err := ckpt.WriteFileFS(mem, path, metaMagic, metaVer+1, payload); err != nil {
		t.Fatal(err)
	}
	_, quarantined, err = OpenStoreFS(mem, "/store")
	if !errors.Is(err, ckpt.ErrVersion) || len(quarantined) != 0 {
		t.Fatalf("future-version meta: quarantined %v, err %v — want ErrVersion", quarantined, err)
	}
}

func TestStoreMetaIDMismatchRejected(t *testing.T) {
	st := openStore(t, t.TempDir())
	if err := st.Create(Meta{ID: "c00000001", Spec: testSpec(), Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	// Copy the meta file into a differently named directory: the embedded
	// ID check catches the inconsistency.
	src := filepath.Join(st.root, "c00000001", metaFile)
	dst := filepath.Join(st.root, "c00000009")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, metaFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LoadMeta("c00000009"); err == nil {
		t.Fatal("meta with mismatched ID accepted")
	}
}

func TestStoreCheckpointAndLog(t *testing.T) {
	st := openStore(t, t.TempDir())
	id := "c00000001"
	if err := st.Create(Meta{ID: id, Spec: testSpec(), Status: StatusRunning}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.LoadCheckpoint(id); err != nil || ok {
		t.Fatalf("empty campaign: checkpoint ok=%v err=%v", ok, err)
	}
	if _, ok, err := st.LoadLog(id); err != nil || ok {
		t.Fatalf("empty campaign: log ok=%v err=%v", ok, err)
	}
	// Produce one real cut and persist it through the store.
	spec := testSpec()
	bench, sp, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, ck, err := search.Allocate(bench, sp, spec.SearchConfig(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("test spec completed inside one allocation; shrink walltime")
	}
	if err := st.SaveCheckpoint(id, ck); err != nil {
		t.Fatal(err)
	}
	loaded, ok, err := st.LoadCheckpoint(id)
	if err != nil || !ok {
		t.Fatalf("reload checkpoint: ok=%v err=%v", ok, err)
	}
	if loaded.Allocations != ck.Allocations || loaded.Now != ck.Now {
		t.Fatalf("checkpoint round trip: %d/%g vs %d/%g",
			loaded.Allocations, loaded.Now, ck.Allocations, ck.Now)
	}
	// Run the search to completion and persist its final log.
	log := search.Run(candle.NewCombo(candle.Config{Seed: spec.Seed}), space.NewComboSmall(), spec.SearchConfig())
	if err := st.SaveLog(id, log); err != nil {
		t.Fatal(err)
	}
	gotLog, ok, err := st.LoadLog(id)
	if err != nil || !ok {
		t.Fatalf("reload log: ok=%v err=%v", ok, err)
	}
	if len(gotLog.Results) != len(log.Results) {
		t.Fatalf("log round trip lost results: %d vs %d", len(gotLog.Results), len(log.Results))
	}
}

// TestOpenStoreGeneratesNoDataset: reading a stored spec validates it, and
// validating a spec resolves names only — Spec.Build is the one place a
// campaign's dataset is generated. One candle.NewCombo allocates ~18 MB, so
// an open that built a benchmark per stored campaign would spend hundreds of
// megabytes here; resolving the space costs ~0.05 MB.
func TestOpenStoreGeneratesNoDataset(t *testing.T) {
	mem := fsim.NewMemFS()
	st, _, err := OpenStoreFS(mem, "/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	const campaigns = 50
	for i := 0; i < campaigns; i++ {
		id, err := st.NextID()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Create(Meta{ID: id, Spec: Spec{Bench: "Combo", Horizon: 400}, Status: StatusDone}); err != nil {
			t.Fatal(err)
		}
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	mgr, quarantined, err := NewManager("/campaigns", Options{FS: mem})
	goruntime.ReadMemStats(&after)
	if err != nil || len(quarantined) != 0 {
		t.Fatalf("open: err %v, quarantined %v", err, quarantined)
	}
	if got := len(mgr.List()); got != campaigns {
		t.Fatalf("opened %d campaigns, want %d", got, campaigns)
	}
	if spent := after.TotalAlloc - before.TotalAlloc; spent > 32<<20 {
		t.Fatalf("opening %d stored campaigns allocated %d MB: something generated datasets", campaigns, spent>>20)
	}
}
