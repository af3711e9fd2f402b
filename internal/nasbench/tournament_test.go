package nasbench

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/search"
)

// nanoTournament is the fast-tier tournament fixture: all four strategies
// over a small common seed set against the nano table.
func nanoTournament(tbl *Table, fsys fsim.FS, dir string) TournamentConfig {
	return TournamentConfig{
		Bench:           testBench(),
		Space:           ComboNano(),
		Table:           tbl,
		Seeds:           3,
		BaseSeed:        11,
		Agents:          1,
		WorkersPerAgent: 2,
		Horizon:         600,
		Dir:             dir,
		FS:              fsys,
	}
}

// killTournament runs a tournament session over cfg.FS that is killed
// after n new runs (killAfter).
func killTournament(t *testing.T, cfg TournamentConfig, n int) {
	t.Helper()
	cfg.FS = killAfter(cfg.FS, n)
	if _, err := RunTournament(cfg); !errors.Is(err, fsim.ErrCrashed) {
		t.Fatalf("tournament killed after %d runs: %v", n, err)
	}
}

// TestShortTournamentDeterminism is the tournament satellite: the same
// seed set produces the identical result set — digest included — across
// repeated uninterrupted runs, across a mid-tournament kill/resume, after
// a quarantined artifact, and through an artifact reload. Combined with
// TestShortTableReplayByteIdentical (table lookups perturb no RNG
// stream), this pins the leaderboard end to end.
func TestShortTournamentDeterminism(t *testing.T) {
	tbl, _ := buildNanoTable(t)

	// Two independent uninterrupted runs: identical digests.
	a, err := RunTournament(nanoTournament(tbl, fsim.NewMemFS(), "/tour"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTournament(nanoTournament(tbl, fsim.NewMemFS(), "/tour"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == "" || a.Digest != b.Digest {
		t.Fatalf("uninterrupted digests differ: %q vs %q", a.Digest, b.Digest)
	}
	if len(a.Runs) != 4*3 {
		t.Fatalf("tournament ran %d searches, want 12", len(a.Runs))
	}
	if !reflect.DeepEqual(a.Runs, b.Runs) {
		t.Fatal("equal digests but unequal runs")
	}

	// Power-cut mid-tournament, resume from the crash image, and the
	// result set must be the uninterrupted one exactly.
	mem := fsim.NewMemFS()
	killTournament(t, nanoTournament(tbl, mem, "/tour"), 5)
	mem = mem.CrashImage()
	cfg := nanoTournament(tbl, mem, "/tour")
	c, err := RunTournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Digest != a.Digest {
		t.Fatalf("kill/resume digest %q differs from uninterrupted %q", c.Digest, a.Digest)
	}

	// The artifact now memoizes: a re-run replays nothing and the WAL is gone.
	d, err := RunTournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d.Digest != a.Digest || !reflect.DeepEqual(d.Runs, a.Runs) {
		t.Fatal("artifact reload changed the tournament")
	}
	if payloads, _, err := scanSegments(mem, "/tour"); err != nil || len(payloads) != 0 {
		t.Fatalf("segments survive finalize: %d payloads, err %v", len(payloads), err)
	}

	// A differently configured tournament must refuse the foreign artifact,
	// not silently serve it.
	foreign := cfg
	foreign.Seeds = 2
	if _, err := RunTournament(foreign); err == nil || !strings.Contains(err.Error(), "not this configuration") {
		t.Fatalf("foreign artifact: %v", err)
	}

	// A torn artifact is quarantined and the tournament rebuilt to the
	// same digest (runs are deterministic, rewards are table-pinned).
	path := filepath.Join("/tour", TournamentFile)
	raw, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mem.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(raw[:len(raw)/3]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	e, err := RunTournament(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if e.Digest != a.Digest {
		t.Fatalf("rebuild after quarantine digest %q differs from %q", e.Digest, a.Digest)
	}

	// Leaderboard sanity over the pinned result set.
	board := a.Leaderboard(tbl)
	if len(board) != 4 {
		t.Fatalf("leaderboard has %d rows, want 4", len(board))
	}
	wins := 0
	for _, row := range board {
		if row.Min > row.Median || row.Median > row.Max {
			t.Fatalf("%s: unsorted distribution %+v", row.Strategy, row)
		}
		if row.Oracle < 0 || row.Oracle > 3 || row.Converged > 3 {
			t.Fatalf("%s: impossible counts %+v", row.Strategy, row)
		}
		wins += row.Wins
	}
	if wins < 3 {
		t.Fatalf("per-seed winners sum to %d, want ≥ one per seed", wins)
	}
}

// TestShortTournamentValidates pins the API contract: a configuration that
// cannot make the tournament it names is refused before anything is
// journaled or run — a missing table or directory, a mismatched table/space, a negative
// seed count (once an empty tournament with a digest), an unknown strategy
// (once refused only at its first run, after the runs before it were
// journaled), a repeated or unnamed one (once run again and merged into one
// Leaderboard row), and a search setting every run would reject.
func TestShortTournamentValidates(t *testing.T) {
	tbl, _ := buildNanoTable(t)
	for name, mutate := range map[string]func(*TournamentConfig){
		"no table":           func(c *TournamentConfig) { c.Table = nil },
		"no directory":       func(c *TournamentConfig) { c.Dir = "" },
		"mismatched space":   func(c *TournamentConfig) { c.Space = ComboMicro() },
		"negative seeds":     func(c *TournamentConfig) { c.Seeds = -2 },
		"unknown strategy":   func(c *TournamentConfig) { c.Strategies = []string{search.A3C, "bogus"} },
		"repeated strategy":  func(c *TournamentConfig) { c.Strategies = []string{search.A3C, search.A3C} },
		"unnamed strategy":   func(c *TournamentConfig) { c.Strategies = []string{""} },
		"invalid run config": func(c *TournamentConfig) { c.Agents = -1 },
	} {
		mem := fsim.NewMemFS()
		cfg := nanoTournament(tbl, mem, "/tour")
		mutate(&cfg)
		if tour, err := RunTournament(cfg); err == nil {
			t.Errorf("%s: ran %d searches with digest %q and no error", name, len(tour.Runs), tour.Digest)
		}
		if payloads, _, err := scanSegments(mem, "/tour"); err != nil || len(payloads) != 0 {
			t.Errorf("%s: journaled %d runs before refusing (scan err %v)", name, len(payloads), err)
		}
	}
}

// TestShortTournamentSeedSetIsCommon pins the Li–Talwalkar protocol
// itself: every strategy faces the identical seed multiset.
func TestShortTournamentSeedSetIsCommon(t *testing.T) {
	tbl, _ := buildNanoTable(t)
	tour, err := RunTournament(nanoTournament(tbl, fsim.NewMemFS(), "/tour"))
	if err != nil {
		t.Fatal(err)
	}
	seeds := map[string][]uint64{}
	for _, r := range tour.Runs {
		seeds[r.Strategy] = append(seeds[r.Strategy], r.Seed)
	}
	want := []uint64{11, 12, 13}
	for _, strat := range []string{search.A3C, search.A2C, search.RDM, search.EVO} {
		if !reflect.DeepEqual(seeds[strat], want) {
			t.Fatalf("%s saw seeds %v, want %v", strat, seeds[strat], want)
		}
	}
}

// TestShortTournamentDigestGolden pins the digest's canonical encoding
// with a committed constant. The digest is stored in the artifact by one
// process and re-verified by any later process that loads it, so it must
// be a pure function of the tournament's VALUE — independent of process
// history. (The first implementation hashed raw gob bytes; gob assigns
// wire type IDs from a process-global counter, so a warm reload in a
// fresh process — different gob history than the writer — recomputed a
// different digest, quarantined the good artifact, and silently re-ran
// the whole tournament. A fixed constant catches any encoding that can
// drift between processes or versions.)
func TestShortTournamentDigestGolden(t *testing.T) {
	tour := &Tournament{
		Meta: Meta{Bench: "Combo", Space: "combo-nano", Size: 9,
			Eval: evaluator.Config{Fidelity: 0.1, Epochs: 1, Timeout: 600,
				RealBatchSize: 64, RealEpochs: 1, RealLR: 0.005, BenchSeed: 745197}},
		Strategies: []string{"a3c", "a2c"},
		Seeds:      2, BaseSeed: 11,
		Runs: []RunResult{
			{Index: 0, Strategy: "a3c", Seed: 11, Best: 0.5, BestKey: "k",
				Evaluations: 3, CacheHits: 1, Unique: 2, EndTime: 600},
			{Index: 1, Strategy: "a3c", Seed: 12, Best: math.Inf(-1), Converged: true},
		},
	}
	const want = "2aad0a88cc0e403bfe5e642dfb339ee72352c6a7357f6e5fd975ee59306f883f"
	if got := tour.digest(); got != want {
		t.Fatalf("canonical digest changed:\n got %s\nwant %s\n(an intentional format change must bump the digest prefix and this constant)", got, want)
	}
	// Field sensitivity: any run field flip must move the digest.
	mut := *tour
	mut.Runs = append([]RunResult(nil), tour.Runs...)
	mut.Runs[1].Converged = false
	if mut.digest() == want {
		t.Fatal("digest ignored a run field")
	}
}
