package nasbench

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"

	"nasgo/internal/analytics"
	"nasgo/internal/candle"
	"nasgo/internal/ckpt"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/search"
	"nasgo/internal/space"
)

const (
	tourMagic = "nasgotou"
	// TournamentFile is the finalized artifact under TournamentConfig.Dir.
	TournamentFile = "tournament.nasbench"
)

// TournamentConfig parameterizes a Li–Talwalkar-style strategy tournament:
// every strategy over the same seed set, rewards served from a finished
// table, so a thousand searches cost minutes instead of node-years.
type TournamentConfig struct {
	// Bench must match the table's benchmark; Space the tabulated sub-space.
	Bench *candle.Benchmark
	Space *space.Space
	Table *Table
	// Strategies defaults to all four (A3C, A2C, RDM, EVO).
	Strategies []string
	// Seeds is the per-strategy seed count (default 1000). Every strategy
	// sees the identical seed set BaseSeed..BaseSeed+Seeds-1.
	Seeds    int
	BaseSeed uint64
	// Agents, WorkersPerAgent, Horizon shape each search (defaults 2, 4,
	// 1800 virtual seconds — small searches; the tournament's power comes
	// from seed count, not per-search scale).
	Agents, WorkersPerAgent int
	Horizon                 float64
	// Dir, when set, makes the tournament resumable: each finished run is
	// journaled to the WAL, and a killed tournament continues after the
	// last durable run. Empty runs purely in memory.
	Dir string
	// FS routes the WAL/artifact I/O (nil = real filesystem).
	FS fsim.FS
	// MaxRuns, when > 0, stops the session after that many new searches —
	// the kill/resume tests' deterministic knob.
	MaxRuns int
}

func (c TournamentConfig) withDefaults() TournamentConfig {
	if len(c.Strategies) == 0 {
		c.Strategies = []string{search.A3C, search.A2C, search.RDM, search.EVO}
	}
	if c.Seeds == 0 {
		c.Seeds = 1000
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if c.Agents == 0 {
		c.Agents = 2
	}
	if c.WorkersPerAgent == 0 {
		c.WorkersPerAgent = 4
	}
	if c.Horizon == 0 {
		c.Horizon = 1800
	}
	return c
}

// RunResult is one replayed search: the best architecture a strategy found
// with one seed. Index orders the tournament's WAL.
type RunResult struct {
	Index    int
	Strategy string
	Seed     uint64
	// Best and BestKey are the run's best non-failed reward and its
	// architecture (the Li–Talwalkar statistic).
	Best    float64
	BestKey string
	// Evaluations, CacheHits, Unique, Converged, EndTime summarize the
	// search dynamics.
	Evaluations int
	CacheHits   int
	Unique      int
	Converged   bool
	EndTime     float64
}

// Tournament is the complete result set plus its determinism digest.
type Tournament struct {
	Meta       Meta
	Strategies []string
	Seeds      int
	BaseSeed   uint64
	Runs       []RunResult
	// Digest is the hex SHA-256 of the canonical result encoding — equal
	// digests mean equal tournaments, byte for byte.
	Digest string
}

// digest canonically hashes everything except the digest field itself.
// The encoding is hand-rolled — fixed field order, length-prefixed
// strings, IEEE-754 bits for floats — NOT gob: gob assigns wire type IDs
// from a process-global counter, so the same value encodes to different
// bytes depending on what else the process has gob-encoded or -decoded
// first, and a digest over those bytes fails verification across
// processes (a warm reload would quarantine a perfectly good artifact).
// TestShortTournamentDigestGolden pins the encoding with a committed
// constant.
func (t *Tournament) digest() string {
	h := sha256.New()
	var scratch [8]byte
	wu := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		io.WriteString(h, s)
	}
	wf := func(f float64) { wu(math.Float64bits(f)) }
	wb := func(b bool) {
		if b {
			wu(1)
		} else {
			wu(0)
		}
	}
	ws("nasgotou-digest-v1")
	ws(t.Meta.Bench)
	ws(t.Meta.Space)
	wu(uint64(t.Meta.Size))
	// Meta.Eval holds only the binding fields (bindingConfig); hash
	// exactly those so digests survive unrelated Config growth.
	e := t.Meta.Eval
	wf(e.Fidelity)
	wu(uint64(e.Epochs))
	wf(e.Timeout)
	wu(uint64(e.RealBatchSize))
	wu(uint64(e.RealEpochs))
	wf(e.RealLR)
	wu(e.BenchSeed)
	wu(uint64(len(t.Strategies)))
	for _, s := range t.Strategies {
		ws(s)
	}
	wu(uint64(t.Seeds))
	wu(t.BaseSeed)
	wu(uint64(len(t.Runs)))
	for _, r := range t.Runs {
		wu(uint64(r.Index))
		ws(r.Strategy)
		wu(r.Seed)
		wf(r.Best)
		ws(r.BestKey)
		wu(uint64(r.Evaluations))
		wu(uint64(r.CacheHits))
		wu(uint64(r.Unique))
		wb(r.Converged)
		wf(r.EndTime)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// RunTournament replays Strategies × Seeds searches against the table. With
// Dir set it is crash-consistent at run granularity: finished runs are
// journaled to the same WAL substrate the builder uses, a killed tournament
// resumes after the last durable run, and the resumed result set — digest
// included — is identical to an uninterrupted one's (each run is
// deterministic in its config, and the table pins every reward). Runs are
// replayed GOMAXPROCS at a time and journaled in index order (inOrder), so
// the WAL, the artifact and the digest do not depend on the core count.
func RunTournament(cfg TournamentConfig) (*Tournament, error) {
	cfg = cfg.withDefaults()
	if cfg.Table == nil {
		return nil, fmt.Errorf("nasbench: tournament needs a table")
	}
	if cfg.Table.Meta.Bench != cfg.Bench.Name || cfg.Table.Meta.Space != cfg.Space.Name {
		return nil, fmt.Errorf("nasbench: table is for %s/%s, tournament for %s/%s",
			cfg.Table.Meta.Bench, cfg.Table.Meta.Space, cfg.Bench.Name, cfg.Space.Name)
	}
	// Refuse, before anything is journaled, what would otherwise fail
	// mid-tournament or silently mean something else.
	if cfg.Seeds < 0 {
		return nil, fmt.Errorf("nasbench: tournament Seeds = %d, want > 0 seeds per strategy (0 selects the default 1000)", cfg.Seeds)
	}
	for i, strat := range cfg.Strategies {
		if strat == "" || slices.Contains(cfg.Strategies[:i], strat) {
			return nil, fmt.Errorf("nasbench: tournament strategies %q: each must be named once (Leaderboard keys its rows by name)", cfg.Strategies)
		}
		if err := runConfig(cfg, strat, cfg.BaseSeed).Validate(); err != nil {
			return nil, fmt.Errorf("nasbench: tournament strategy %q: %w", strat, err)
		}
	}
	fsys := orOS(cfg.FS)
	total := len(cfg.Strategies) * cfg.Seeds

	tour := &Tournament{
		Meta:       cfg.Table.Meta,
		Strategies: append([]string(nil), cfg.Strategies...),
		Seeds:      cfg.Seeds,
		BaseSeed:   cfg.BaseSeed,
	}

	var j *journal[RunResult] // nil without a Dir: nothing is journaled
	artifact := filepath.Join(cfg.Dir, TournamentFile)
	if cfg.Dir != "" {
		var prev *Tournament
		var err error
		prev, j, err = openJournal(fsys, cfg.Dir, artifact, total, func() (*Tournament, error) {
			t, err := readTournamentFS(fsys, artifact)
			if err == nil && (t.Meta != cfg.Table.Meta || t.Seeds != cfg.Seeds ||
				t.BaseSeed != cfg.BaseSeed || !slices.Equal(t.Strategies, cfg.Strategies)) {
				return nil, fmt.Errorf("nasbench: %s holds a tournament of %v × %d seeds from %d over %s/%s, not this configuration",
					artifact, t.Strategies, t.Seeds, t.BaseSeed, t.Meta.Bench, t.Meta.Space)
			}
			return t, err
		}, func(i int, r RunResult) bool { return r.Index == i })
		if err != nil {
			return nil, err
		}
		if prev != nil {
			return prev, nil
		}
		defer j.close()
		tour.Runs = j.units
	}

	// GOMAXPROCS searches at a time, journaled in index order.
	to := total
	if cfg.MaxRuns > 0 {
		to = min(total, len(tour.Runs)+cfg.MaxRuns)
	}
	err := inOrder(len(tour.Runs), to, func(idx int) (RunResult, error) {
		return tournamentRun(cfg, idx, cfg.Strategies[idx/cfg.Seeds], cfg.BaseSeed+uint64(idx%cfg.Seeds))
	}, func(run RunResult) error {
		if j != nil {
			if err := j.append(run); err != nil {
				return err
			}
		}
		tour.Runs = append(tour.Runs, run)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(tour.Runs) < total {
		return tour, fmt.Errorf("nasbench: tournament stopped at %d/%d runs (MaxRuns bound)", len(tour.Runs), total)
	}

	tour.Digest = tour.digest()
	if j != nil {
		if err := writeTournamentFS(fsys, artifact, tour); err != nil {
			return nil, err
		}
		if err := removeSegments(fsys, cfg.Dir); err != nil {
			return nil, err
		}
	}
	return tour, nil
}

// tournamentRun replays one search against the table and reduces its log.
// The search's evaluator runs in the table's benchmark mode with the
// table's binding training knobs, so the replay guarantee applies whatever
// the tournament seed is.
func tournamentRun(cfg TournamentConfig, idx int, strat string, seed uint64) (RunResult, error) {
	log, err := search.RunReplay(cfg.Bench, cfg.Space, runConfig(cfg, strat, seed), cfg.Table)
	if err != nil {
		return RunResult{}, fmt.Errorf("nasbench: tournament run %d (%s seed %d): %w", idx, strat, seed, err)
	}
	run := RunResult{
		Index:       idx,
		Strategy:    strat,
		Seed:        seed,
		Best:        math.Inf(-1),
		Evaluations: log.Evaluations,
		CacheHits:   log.CacheHits,
		Unique:      log.UniqueArchitectures(),
		Converged:   log.Converged,
		EndTime:     log.EndTime,
	}
	if best := bestResult(log.Results); best != nil {
		run.Best = best.Reward
		run.BestKey = best.Key
	}
	return run, nil
}

// bestResult is TopK(1)[0] (nil for none) in one pass: the first non-failed
// result of the least (−Reward, FinishTime, Key). Results are in completion
// order, so that is the first best-reward result of its key, as in TopK.
func bestResult(results []*evaluator.Result) *evaluator.Result {
	var best *evaluator.Result
	for _, r := range results {
		if r.Failed {
			continue
		}
		if best == nil || r.Reward > best.Reward ||
			r.Reward == best.Reward && (r.FinishTime < best.FinishTime ||
				r.FinishTime == best.FinishTime && r.Key < best.Key) {
			best = r
		}
	}
	return best
}

// runConfig is the search one tournament run replays.
func runConfig(cfg TournamentConfig, strat string, seed uint64) search.Config {
	return search.Config{
		Strategy:        strat,
		Agents:          cfg.Agents,
		WorkersPerAgent: cfg.WorkersPerAgent,
		Horizon:         cfg.Horizon,
		Seed:            seed,
		Eval:            replayEvalConfig(cfg.Table),
	}
}

// replayEvalConfig derives the evaluator configuration a replayed search
// must run with: the table's binding fields (BenchSeed above all), serial
// workers (a lookup leaves the pool nothing to overlap).
func replayEvalConfig(t *Table) evaluator.Config {
	c := t.Meta.Eval
	c.Workers = 1
	return c
}

// StrategySummary is one leaderboard row: the distribution of best-found
// rewards a strategy produced over the common seed set.
type StrategySummary struct {
	Strategy                   string
	Min, P25, Median, P75, Max float64
	Mean                       float64
	// Wins counts seeds where the strategy matched the best reward any
	// strategy achieved with that seed (ties count for each).
	Wins int
	// Oracle counts seeds where the strategy found the table's best
	// architecture outright.
	Oracle    int
	Converged int
	// MeanEvals is the average number of real (non-cached) evaluations.
	MeanEvals float64
}

// Leaderboard reduces the runs to per-strategy distributions, ordered as
// the tournament ran them.
func (t *Tournament) Leaderboard(table *Table) []StrategySummary {
	bestKey, _ := table.Best()
	byStrat := map[string][]RunResult{}
	for _, r := range t.Runs {
		byStrat[r.Strategy] = append(byStrat[r.Strategy], r)
	}
	// Per-seed winners across strategies.
	bestBySeed := map[uint64]float64{}
	for _, r := range t.Runs {
		if b, ok := bestBySeed[r.Seed]; !ok || r.Best > b {
			bestBySeed[r.Seed] = r.Best
		}
	}
	out := make([]StrategySummary, 0, len(t.Strategies))
	for _, strat := range t.Strategies {
		runs := byStrat[strat]
		if len(runs) == 0 {
			continue
		}
		s := StrategySummary{Strategy: strat}
		vals := make([]float64, 0, len(runs))
		for _, r := range runs {
			vals = append(vals, r.Best)
			s.Mean += r.Best
			s.MeanEvals += float64(r.Evaluations)
			if r.Best == bestBySeed[r.Seed] {
				s.Wins++
			}
			if r.BestKey == bestKey {
				s.Oracle++
			}
			if r.Converged {
				s.Converged++
			}
		}
		sort.Float64s(vals)
		s.Mean /= float64(len(vals))
		s.MeanEvals /= float64(len(runs))
		s.Min, s.Max = vals[0], vals[len(vals)-1]
		s.P25 = analytics.Quantile(vals, 0.25)
		s.Median = analytics.Quantile(vals, 0.5)
		s.P75 = analytics.Quantile(vals, 0.75)
		out = append(out, s)
	}
	return out
}

// writeTournamentFS finalizes a tournament artifact (same container
// discipline as the table).
func writeTournamentFS(fsys fsim.FS, path string, t *Tournament) error {
	payload, err := gobEncode("tournament", t)
	if err != nil {
		return err
	}
	return ckpt.WriteFileFS(fsys, path, tourMagic, 1, payload)
}

// readTournamentFS loads a finalized tournament artifact and re-verifies
// its digest (a mismatch is structural damage the checksum cannot see —
// an artifact assembled from the wrong runs).
func readTournamentFS(fsys fsim.FS, path string) (*Tournament, error) {
	payload, _, err := ckpt.ReadFileFS(fsys, path, tourMagic, 1)
	if err != nil {
		return nil, err
	}
	t := &Tournament{}
	if err := gobDecode(payload, t); err != nil {
		return nil, corruptErr("tournament payload undecodable: %v", err)
	}
	if t.Digest != t.digest() {
		return nil, corruptErr("tournament digest mismatch")
	}
	return t, nil
}
