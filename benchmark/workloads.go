package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"nasgo/internal/campaign"
	"nasgo/internal/candle"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/nasbench"
	"nasgo/internal/search"
	"nasgo/internal/space"
)

func scaleBy(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

func inverse(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = k / x
	}
	return out
}

// logDigest hashes a search log's JSON with the one field that may differ
// between hosts and passes — the unresolved worker-pool size — normalised.
func logDigest(log *search.Log) string {
	n := *log
	n.Config.Eval.Workers = 1
	b, err := json.Marshal(&n)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// checkLog holds a search log to what is true of a correct log whatever
// the seed: it has results, every result's key is the hash of its choices in
// this space, rewards of successful estimations are finite, results are in
// completion order, and the cache-hit counter counts the cached results.
func checkLog(log *search.Log, sp *space.Space) error {
	if len(log.Results) == 0 {
		return fmt.Errorf("no results")
	}
	cached, last := 0, 0.0
	for i, res := range log.Results {
		if res.Key != sp.Hash(res.Choices) {
			return fmt.Errorf("result %d: key %q is not the hash of its choices", i, res.Key)
		}
		if !res.Failed && (math.IsNaN(res.Reward) || math.IsInf(res.Reward, 0)) {
			return fmt.Errorf("result %d: reward %v", i, res.Reward)
		}
		if res.FinishTime < last {
			return fmt.Errorf("result %d finished at %g, before its predecessor", i, res.FinishTime)
		}
		last = res.FinishTime
		if res.Cached {
			cached++
		}
	}
	if cached != log.CacheHits {
		return fmt.Errorf("%d cached results, CacheHits = %d", cached, log.CacheHits)
	}
	return nil
}

// ---- live_search ------------------------------------------------------

// liveSetup builds the Combo benchmark data and its small search space.
func liveSetup() (*candle.Benchmark, *space.Space) {
	bench := candle.NewCombo(candle.Config{Seed: dataSeed})
	sp, err := bench.Space("small")
	if err != nil {
		panic(err)
	}
	return bench, sp
}

func liveConfig(r *run, seed uint64) search.Config {
	// Eval.Workers stays 0: GOMAXPROCS, what a user gets by default.
	return search.Config{Strategy: search.A3C, Agents: 2, WorkersPerAgent: 4, Horizon: r.sc.horizon, Seed: seed}
}

// liveSearch is the paper's actual use: one live-training A3C search,
// repeated on the same seed, so every repetition is the same work and must
// produce the same log.
func liveSearch(r *run) {
	var bench *candle.Benchmark
	var sp *space.Space
	setup := setupTimes(21, func(int) { bench, sp = liveSetup() })

	cfg := liveConfig(r, r.seed)
	var walls, rates []float64
	r.repeat(r.sc.liveReps, func(int) {
		r.attempt(1)
		t0 := time.Now()
		log := search.Run(bench, sp, cfg)
		wall := time.Since(t0).Seconds()
		if err := checkLog(log, sp); err != nil {
			r.fail(1, "search log: %v", err)
			return
		}
		if !r.verify("log", cfg.Seed, logDigest(log)) {
			r.fail(1, "seed %d: search log differs from the log of the same seed", cfg.Seed)
		}
		walls = append(walls, wall)
		rates = append(rates, float64(len(log.Results))/wall)
	})
	r.op(walls)
	r.add(timing("setup_s", "s", setup),
		timing("evals_per_s", "1/s", rates),
		timing("search_wall_s", "s", walls))
}

// ---- tournament_rl, tournament_sweep ----------------------------------

// table is the tournaments' set-up: the benchmark, the tabulated sub-space
// and the reward table, built cold into a fresh directory.
type table struct {
	bench *candle.Benchmark
	sp    *space.Space
	tbl   *nasbench.Table
	cfg   nasbench.BuildConfig
}

func buildTable(r *run) (*table, float64) {
	t0 := time.Now()
	t := &table{bench: candle.NewCombo(candle.Config{Seed: dataSeed})}
	if r.sc.micro {
		t.sp = nasbench.ComboMicro()
	} else {
		t.sp = nasbench.ComboNano()
	}
	t.cfg = nasbench.BuildConfig{
		Bench: t.bench, Space: t.sp,
		Eval: evaluator.Config{BenchSeed: dataSeed},
		Dir:  r.fresh("table"),
	}
	tbl, rep, err := nasbench.BuildOrLoad(t.cfg)
	if err != nil {
		panic(fmt.Sprintf("table build: %v", err))
	}
	if rep.Trained != rep.Total {
		panic(fmt.Sprintf("cold table build trained %d of %d architectures", rep.Trained, rep.Total))
	}
	t.tbl = tbl
	return t, time.Since(t0).Seconds()
}

// Every tournament search runs with these — nasbench.TournamentConfig's own
// defaults, spelled out because the traced pass replays the searches one by
// one and must build the identical configuration.
const (
	tourAgents  = 2
	tourWorkers = 4
	tourHorizon = 1800
)

func (t *table) tournament(r *run, strategies []string, seeds int, dir string, fsys fsim.FS) nasbench.TournamentConfig {
	return nasbench.TournamentConfig{
		Bench: t.bench, Space: t.sp, Table: t.tbl,
		Strategies: strategies, Seeds: seeds, BaseSeed: r.seed,
		Agents: tourAgents, WorkersPerAgent: tourWorkers, Horizon: tourHorizon,
		Dir: dir, FS: fsys,
	}
}

// runTournament is one repetition: a whole tournament, timed and verified.
func runTournament(r *run, cfg nasbench.TournamentConfig) (tour *nasbench.Tournament, wall float64) {
	want := len(cfg.Strategies) * cfg.Seeds
	r.attempt(want)
	t0 := time.Now()
	tour, err := nasbench.RunTournament(cfg)
	wall = time.Since(t0).Seconds()
	if err != nil {
		r.fail(want, "tournament: %v", err)
		return nil, wall
	}
	if len(tour.Runs) != want {
		r.fail(want, "tournament ran %d searches, want %d", len(tour.Runs), want)
		return nil, wall
	}
	if !r.verify("tournament", cfg.BaseSeed, tour.Digest) {
		r.fail(want, "tournament digest differs from the digest of the same seed")
	}
	// True of any seed: the best reward a search reports is the table's own
	// entry for the architecture it names.
	for _, run := range tour.Runs {
		if m, ok := cfg.Table.Metric(run.BestKey); !ok || m != run.Best {
			r.fail(1, "%s seed %d: best %v for %q is not the table's %v", run.Strategy, run.Seed, run.Best, run.BestKey, m)
		}
	}
	return tour, wall
}

// tournamentWorkload repeats the same tournament — same strategies, same
// seeds — each time journaling into a fresh directory: on the real disk, or
// on a fresh in-memory filesystem where inMemory is set.
func tournamentWorkload(r *run, strategies []string, seeds, reps int, inMemory bool) {
	t, setup := buildTable(r)
	config := func(seeds int) (nasbench.TournamentConfig, func()) {
		if inMemory {
			return t.tournament(r, strategies, seeds, "tour", fsim.NewMemFS()), func() {}
		}
		dir := r.fresh("tour")
		return t.tournament(r, strategies, seeds, dir, nil), func() { os.RemoveAll(dir) }
	}
	// A tenth-size tournament, discarded: the heap size and the allocator
	// settle before anything is timed.
	warm, done := config(max(seeds/10, 1))
	if _, err := nasbench.RunTournament(warm); err != nil {
		panic(fmt.Sprintf("warm-up tournament: %v", err))
	}
	done()
	var rates []float64
	r.repeat(reps, func(int) {
		cfg, done := config(seeds)
		defer done()
		if tour, wall := runTournament(r, cfg); tour != nil {
			rates = append(rates, float64(len(tour.Runs))/wall)
		}
	})
	r.op(inverse(rates, 1)) // the searches run one after the other
	r.add(single("setup_s", "s", setup),
		timing("searches_per_s", "1/s", rates))
}

var (
	rlStrategies    = []string{search.A3C, search.A2C}
	sweepStrategies = []string{search.RDM, search.EVO}
)

// tournamentRL serves rewards from the table, so the controller's PPO
// update is nearly all of a search. It journals to the real disk: one fsync
// in a quarter of a second of search.
func tournamentRL(r *run) {
	tournamentWorkload(r, rlStrategies, r.sc.rlSeeds, r.sc.rlReps, false)
}

// tournamentSweep runs the same tournament code with the two strategies
// that have no controller: what is left is the evaluator's submit path, the
// simulator, log assembly and the WAL append. The journal goes to an
// in-memory filesystem: on the real disk a search of 1.5 ms waits 0.2 to
// 3.5 ms for the shared host's fsync, depending on the minute, and the rate
// measured the disk's neighbours instead of the program. What the disk costs
// is in the traced pass, which runs this tournament on it through the timing
// filesystem (fsim.*, nasbench.wal_append_us).
func tournamentSweep(r *run) {
	tournamentWorkload(r, sweepStrategies, r.sc.sweepSeeds, r.sc.sweepReps, true)
}

// ---- campaign_http ----------------------------------------------------

// service is the served product: a campaign manager behind its HTTP API on
// a loopback listener, and one client holding one keep-alive connection.
type service struct {
	mgr    *campaign.Manager
	srv    *httptest.Server
	client *http.Client
	// spans, on the traced pass, takes one span per request.
	spans *spanLog
}

func startService(r *run, dir string, fsys fsim.FS) *service {
	mgr, _, err := campaign.NewManager(dir, campaign.Options{FS: fsys})
	if err != nil {
		panic(fmt.Sprintf("campaign manager: %v", err))
	}
	mgr.Start()
	s := &service{mgr: mgr, spans: r.spans,
		srv:    httptest.NewServer(campaign.NewServer(mgr, campaign.ServerOptions{}).Handler()),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
	if code, _ := s.get("healthz", "/healthz"); code != http.StatusOK {
		panic(fmt.Sprintf("healthz: status %d", code))
	}
	return s
}

func (s *service) stop() {
	s.client.CloseIdleConnections()
	s.srv.Close()
	s.mgr.Drain()
}

// get and post name the route for the span; path is the request itself.
func (s *service) get(route, path string) (int, []byte) {
	defer s.spans.record("http.GET "+route, time.Now())
	resp, err := s.client.Get(s.srv.URL + path)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, body
}

func (s *service) post(route, path string, body []byte) (int, []byte) {
	defer s.spans.record("http.POST "+route, time.Now())
	resp, err := s.client.Post(s.srv.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, out
}

// campaignSpec is many tiny serial trainings and a checkpoint every 25
// virtual seconds: the opposite use of the training and persistence layers
// from live_search.
func campaignSpec(horizon float64, seed uint64) campaign.Spec {
	return campaign.Spec{
		Bench: "Combo", Strategy: search.A2C, Agents: 2, Workers: 4,
		Horizon: horizon, Walltime: 25, Seed: seed,
		EvalWorkers: 1, RealEpochs: 1, RealBatchSize: 64,
	}
}

const (
	pollEvery = 10 * time.Millisecond
	// campaignDeadline gives up on a campaign that takes ten times what one
	// takes on the reference host, so a wedged server fails the run instead
	// of hanging it.
	campaignDeadline = 90 * time.Second
)

// comboSmall is the space every campaign searches.
var comboSmall = space.NewComboSmall()

// campaignTimes is what one submitted campaign measured.
type campaignTimes struct {
	id           string
	submitMs     float64
	submitToDone float64
	total        float64 // submit through the last fetch
	statusMs     []float64
	lateMs       []float64
	logMs        float64
	traceMs      float64
	allocations  int
	traceBody    []byte
	log          *search.Log
}

// driveCampaign submits one campaign and polls its status on an open-loop
// 10 ms schedule until a poll sees a terminal status, then fetches its log,
// trace and the leaderboard. Each status latency is timed from the moment
// the request was due, so a stalled server is charged for the polls it
// delayed; lateMs is how late the generator itself sent each one. output
// names the log for verification: equal names must hash equal.
func driveCampaign(r *run, s *service, output string, sp campaign.Spec) *campaignTimes {
	c := &campaignTimes{}
	spec, err := json.Marshal(sp)
	if err != nil {
		panic(err)
	}
	r.attempt(2) // the campaign and its submission
	start := time.Now()
	code, body := s.post("submit", "/campaigns", spec)
	accepted := time.Now()
	c.submitMs = accepted.Sub(start).Seconds() * 1000
	var info campaign.Info
	if code != http.StatusCreated || json.Unmarshal(body, &info) != nil {
		r.fail(2, "submit: status %d", code)
		return nil
	}
	c.id = info.ID

	for k := 1; ; k++ {
		if time.Since(accepted) > campaignDeadline {
			r.fail(1, "campaign %s: not terminal after %v", c.id, campaignDeadline)
			return nil
		}
		due := accepted.Add(time.Duration(k) * pollEvery)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		code, body := s.get("status", "/campaigns/"+c.id)
		got := time.Now()
		r.attempt(1)
		if code != http.StatusOK || json.Unmarshal(body, &info) != nil {
			r.fail(1, "status: %d", code)
			continue
		}
		c.statusMs = append(c.statusMs, got.Sub(due).Seconds()*1000)
		c.lateMs = append(c.lateMs, sent.Sub(due).Seconds()*1000)
		if info.Status.Terminal() {
			c.submitToDone = got.Sub(accepted).Seconds()
			break
		}
	}
	c.allocations = info.Allocations
	if info.Status != campaign.StatusDone {
		r.fail(1, "campaign %s ended %s: %s", c.id, info.Status, info.Error)
	}

	fetch := func(route, path string) ([]byte, float64) {
		r.attempt(1)
		t0 := time.Now()
		code, body := s.get(route, path)
		ms := time.Since(t0).Seconds() * 1000
		if code != http.StatusOK {
			r.fail(1, "GET %s: status %d", path, code)
			return nil, ms
		}
		return body, ms
	}
	var logBody []byte
	logBody, c.logMs = fetch("log", "/campaigns/"+c.id+"/log")
	c.traceBody, c.traceMs = fetch("trace", "/campaigns/"+c.id+"/trace?since=0")
	fetch("leaderboard", "/leaderboard")
	c.total = time.Since(start).Seconds()

	if logBody != nil {
		if !r.verify(output, sp.Seed, fmt.Sprintf("%x", sha256.Sum256(logBody))) {
			r.fail(1, "campaign %s: log differs from the log of the same seed", c.id)
		}
		c.log = &search.Log{}
		if err := json.Unmarshal(logBody, c.log); err != nil {
			r.fail(1, "campaign %s: log unreadable: %v", c.id, err)
		} else if err := checkLog(c.log, comboSmall); err != nil {
			r.fail(1, "campaign %s: log: %v", c.id, err)
		}
	}
	return c
}

// campaignHTTP is a closed loop of campaigns submitted one after the other
// over loopback HTTP, seeds N, N+1, ..., with the status poller beside each.
//
// Set-up is what brings a server to the state it is measured in: manager,
// listener, first /healthz, and one short campaign that is not timed. The
// first campaign a process runs is 5-30 % slower than the later ones (cold
// heap, first touch of every code path), and starting the server alone
// takes half a millisecond of scheduler noise, which no bound can hold.
func campaignHTTP(r *run) {
	var s *service
	setup := setupTimes(3, func(int) {
		if s != nil {
			s.stop()
		}
		s = startService(r, r.fresh("store"), nil)
		if driveCampaign(r, s, "warm-log", campaignSpec(r.sc.warmHorizon, r.seed)) == nil {
			panic("warm-up campaign failed")
		}
	})
	defer s.stop()

	var s2d, perMin, status []float64
	r.repeat(r.sc.campaigns, func(i int) {
		c := driveCampaign(r, s, "log", campaignSpec(r.sc.horizon, r.seed+uint64(i)))
		if c == nil {
			return
		}
		s2d = append(s2d, c.submitToDone)
		perMin = append(perMin, 60/c.total)
		status = append(status, c.statusMs...)
	})
	r.op(s2d)
	r.add(timing("setup_s", "s", setup),
		timing("submit_to_done_s", "s", s2d),
		timing("campaigns_per_min", "1/min", perMin),
		timing("status_p50_ms", "ms", status))
}
