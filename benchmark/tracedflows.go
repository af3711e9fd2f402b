package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nasgo/internal/campaign"
	"nasgo/internal/evaluator"
	"nasgo/internal/fsim"
	"nasgo/internal/nasbench"
	"nasgo/internal/search"
	"nasgo/internal/trace"
)

// The traced pass of each workload: the same work as the end-to-end pass,
// once plain and once with the recorder and wrappers attached, then direct
// timings of each layer on what the workload produced. Every pass prints
// every per-layer metric; a layer that does no work on a workload reports
// zeros.

// recorderCapacity holds every event of one search: nothing may be dropped
// from a ring the counts are read from.
const recorderCapacity = 1 << 22

// ---- live_search ------------------------------------------------------

func liveSearchTraced(r *run) {
	bench, sp := liveSetup()
	cfg := liveConfig(r, r.seed)
	r.attempt(3)
	check := func(log *search.Log, what string) {
		if checkLog(log, sp) != nil || !r.verify("log", r.seed, logDigest(log)) {
			r.fail(1, "%s search log differs from the log of the same seed", what)
		}
	}

	// Plain, at the default pool size.
	t0 := time.Now()
	plain := search.Run(bench, sp, cfg)
	wall := time.Since(t0).Seconds()
	check(plain, "plain")

	// Traced: the recorder attached, nothing else changed.
	rec := trace.NewRecorder(recorderCapacity)
	proc := snapProcess()
	op := r.spans.beginOp("search.Run")
	t0 = time.Now()
	tracedLog, err := search.RunTraced(bench, sp, cfg, rec)
	tracedWall := time.Since(t0).Seconds()
	r.spans.endOp(op)
	r.res.MeasuredS = tracedWall
	proc.emit(r)
	if err != nil {
		r.fail(1, "traced search: %v", err)
		return
	}
	check(tracedLog, "traced")
	var counts traceCounts
	counts.add(rec.Events())

	// Serial: the same search with the evaluator's worker pool off.
	serialCfg := cfg
	serialCfg.Eval.Workers = 1
	t0 = time.Now()
	serial := search.Run(bench, sp, serialCfg)
	serialWall := time.Since(t0).Seconds()
	check(serial, "serial")

	tensorLayer(r)
	trainLayer(r)
	estimate := estimateLayer(r, bench, sp, cfg.Eval, uniqueArchs(plain.Results))
	rlc := rlLayer(r, sp)
	perEvent := hpcLayer(r)

	counts.emit(r)
	evalCounts(r, len(plain.Results), plain.CacheHits)
	speedup := serialWall / wall
	r.add(single("evaluator.pool_speedup", "x", speedup),
		single("evaluator.pool_efficiency", "fraction", speedup/float64(runtime.GOMAXPROCS(0))),
		single("trace.overhead_frac", "fraction", tracedWall/wall-1),
		single("search.self_frac", "fraction", r.spans.selfFrac("search.Run")))
	noFS(r)
	noReplay(r)
	noCheckpoint(r)
	noTable(r)
	noCampaign(r)

	// The layers' costs add up along the serial run, where nothing
	// overlaps; the pooled run is that sum divided by the pool speed-up.
	acc := accounting{wall: serialWall}
	acc.add("evaluator", float64(plain.Evaluations), estimate)
	acc.add("rl", counts.updates(), rlc.updateS)
	acc.add("rl_sample", float64(counts.rounds), rlc.sampleS)
	acc.add("hpc", float64(counts.dispatches), perEvent)
	acc.emit(r)
}

// ---- tournament_rl, tournament_sweep ----------------------------------

// replayAll runs every (strategy, seed) search of a tournament the way
// nasbench.RunTournament does, but one call at a time so that each search
// is timed — twice: plain, and with the recorder and the counting source
// attached. The two run back to back in alternating order, so that drift in
// the host's speed over the pass falls on both sides alike.
func (t *table) replayAll(r *run, strategies []string, seeds int, rec *trace.Recorder, src evaluator.RewardSource,
	visit func(idx int, strategy string, traced *search.Log, plainSecs, tracedSecs float64)) {
	eval := t.tbl.Meta.Eval
	eval.Workers = 1 // a lookup leaves a pool nothing to overlap
	for idx := 0; idx < len(strategies)*seeds; idx++ {
		strategy := strategies[idx/seeds]
		cfg := search.Config{
			Strategy: strategy, Agents: tourAgents, WorkersPerAgent: tourWorkers, Horizon: tourHorizon,
			Seed: r.seed + uint64(idx%seeds), Eval: eval,
		}
		var logs [2]*search.Log
		var secs [2]float64
		var err error
		r.attempt(2)
		for k := 0; k < 2 && err == nil; k++ {
			side := (idx + k) % 2
			if side == 0 {
				t0 := time.Now()
				logs[0], err = search.RunReplay(t.bench, t.sp, cfg, t.tbl)
				secs[0] = time.Since(t0).Seconds()
				continue
			}
			rec.Reset()
			op := r.spans.beginOp("search.RunReplay")
			t0 := time.Now()
			logs[1], err = search.RunReplayTraced(t.bench, t.sp, cfg, rec, src)
			secs[1] = time.Since(t0).Seconds()
			r.spans.endOp(op)
		}
		if err != nil {
			r.fail(2, "replay %s seed %d: %v", strategy, cfg.Seed, err)
			continue
		}
		if logDigest(logs[0]) != logDigest(logs[1]) {
			r.fail(1, "replay %s seed %d: the traced log differs from the plain one", strategy, cfg.Seed)
		}
		visit(idx, strategy, logs[1], secs[0], secs[1])
	}
}

// sameRun reports whether a replayed log reduces to the tournament's own
// record of that search.
func sameRun(want nasbench.RunResult, log *search.Log) bool {
	best, key := math.Inf(-1), ""
	if top := log.TopK(1); len(top) > 0 {
		best, key = top[0].Reward, top[0].Key
	}
	return want.Best == best && want.BestKey == key && want.Evaluations == log.Evaluations &&
		want.CacheHits == log.CacheHits && want.Converged == log.Converged && want.EndTime == log.EndTime
}

func tournamentTraced(r *run, strategies []string, seeds int) {
	t, buildS := buildTable(r)
	loads := setupTimes(5, func(int) {
		if _, rep, err := nasbench.BuildOrLoad(t.cfg); err != nil || rep.Trained != 0 {
			panic(fmt.Sprintf("warm table load: trained %d, err %v", rep.Trained, err))
		}
	})
	r.add(single("nasbench.table_build_s", "s", buildS),
		timing("nasbench.table_load_ms", "ms", scaleBy(loads, 1e3)))
	n := len(strategies) * seeds

	// The whole tournament through the timing filesystem: what the WAL and
	// the artifact cost.
	tfs := newTimingFS(r.spans)
	proc := snapProcess()
	op := r.spans.beginOp("nasbench.RunTournament")
	tour, tourWall := runTournament(r, t.tournament(r, strategies, seeds, r.fresh("tour"), tfs))
	r.spans.endOp(op)
	if tour == nil {
		return
	}
	proc.emit(r)
	tfs.emit(r, n, tourWall)
	r.add(single("nasbench.wal_append_us", "us", tfs.walSecs/float64(max(tfs.walAppends, 1))*1e6),
		single("search.self_frac", "fraction", r.spans.selfFrac("nasbench.RunTournament")))

	// The same searches one by one, plain and traced.
	rec := trace.NewRecorder(recorderCapacity)
	src := &countingSource{tbl: t.tbl}
	var counts traceCounts
	var keys []string
	evals, hits, plainSecs, tracedSecs := 0, 0, 0.0, 0.0
	var all []float64
	byStrategy := map[string][]float64{}
	t.replayAll(r, strategies, seeds, rec, src, func(idx int, strategy string, log *search.Log, plain, traced float64) {
		plainSecs += plain
		tracedSecs += traced
		counts.add(rec.Events())
		if !sameRun(tour.Runs[idx], log) {
			r.fail(1, "replayed search %d differs from the tournament's run", idx)
		}
		evals += len(log.Results)
		hits += log.CacheHits
		all = append(all, plain*1e3)
		byStrategy[strategy] = append(byStrategy[strategy], plain*1e3)
		if idx%max(seeds/8, 1) == 0 {
			for _, res := range log.Results {
				keys = append(keys, res.Key)
			}
		}
	})
	r.res.MeasuredS = tourWall

	r.add(timing("search.replay_ms_p50", "ms", all), single("search.replay_ms_p90", "ms", quantile(all, 0.9)))
	for _, s := range strategies {
		r.add(timing("search.replay_ms_p50."+s, "ms", byStrategy[s]),
			single("search.replay_ms_p90."+s, "ms", quantile(byStrategy[s], 0.9)))
	}
	counts.emit(r)
	evalCounts(r, evals, hits)
	r.add(single("trace.overhead_frac", "fraction", tracedSecs/plainSecs-1))

	// Direct lookups of the keys the searches asked for.
	var sink float64
	secs, _, _ := timed(r.sc.layerIters, func() {
		for _, k := range keys {
			m, _ := t.tbl.Metric(k)
			sink += m
		}
	})
	_ = sink
	lookup := timing("nasbench.lookup_ns", "ns", scaleBy(secs, 1e9/float64(len(keys))))
	r.add(single("nasbench.lookups", "count", float64(src.n.Load())), lookup)

	tensorLayer(r)
	trainLayer(r)
	// What one of the table's 117 trainings costs: the set-up, not the
	// measured phase, is where the training layers show on this workload.
	var archs [][]int
	for i := 0; i < t.tbl.Meta.Size; i++ {
		archs = append(archs, t.sp.ChoicesAt(i))
	}
	estimateLayer(r, t.bench, t.sp, t.cfg.Eval, archs)
	sub := submitLayer(r, t.bench, t.sp, t.tbl.Meta.Eval, archs)
	rlc := rlLayer(r, t.sp)
	perEvent := hpcLayer(r)
	r.none("x", "evaluator.pool_speedup")
	r.none("fraction", "evaluator.pool_efficiency")
	noCheckpoint(r)
	noCampaign(r)

	acc := accounting{wall: tourWall}
	acc.add("rl", counts.updates(), rlc.updateS)
	if counts.delivers > 0 {
		acc.add("rl_sample", float64(counts.rounds), rlc.sampleS)
	}
	acc.add("hpc", float64(counts.dispatches), perEvent)
	acc.add("evaluator_new", float64(n), sub.newS)
	acc.add("evaluator_submit", float64(counts.jobs), sub.compileS)
	acc.add("nasbench_lookup", float64(src.n.Load()), lookup.Value/1e9)
	acc.add("fsim", 1, tfs.busy)
	acc.emit(r)
}

func tournamentRLTraced(r *run)    { tournamentTraced(r, rlStrategies, r.sc.rlSeeds) }
func tournamentSweepTraced(r *run) { tournamentTraced(r, sweepStrategies, r.sc.sweepSeeds) }

// ---- campaign_http ----------------------------------------------------

func campaignHTTPTraced(r *run) {
	// Plain: one campaign on the passthrough filesystem.
	s := startService(r, r.fresh("store"), nil)
	plain := driveCampaign(r, s, "log", campaignSpec(r.sc.horizon, r.seed))
	s.stop()
	if plain == nil {
		return
	}

	// Traced: the same campaign through the timing filesystem, every
	// request a span.
	tfs := newTimingFS(r.spans)
	root := r.fresh("store")
	s = startService(r, root, tfs)
	defer s.stop()
	proc := snapProcess()
	op := r.spans.beginOp("campaign")
	c := driveCampaign(r, s, "log", campaignSpec(r.sc.horizon, r.seed))
	r.spans.endOp(op)
	if c == nil || c.log == nil {
		return
	}
	r.res.MeasuredS = c.total
	proc.emit(r)
	tfs.emit(r, 1, c.total)

	// The status handler called directly: the request minus TCP and the
	// client.
	handler := campaign.NewServer(s.mgr, campaign.ServerOptions{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/campaigns/"+c.id, nil)
	secs, _, _ := timed(20*r.sc.layerIters, func() {
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("status handler: %d", w.Code))
		}
	})
	r.add(single("campaign.allocations", "count", float64(c.allocations)),
		single("campaign.server.status_p90_ms", "ms", quantile(c.statusMs, 0.9)),
		single("campaign.server.status_p99_ms", "ms", quantile(c.statusMs, 0.99)),
		single("campaign.server.submit_ms", "ms", c.submitMs),
		single("campaign.server.log_ms", "ms", c.logMs),
		single("campaign.server.trace_ms", "ms", c.traceMs),
		timing("campaign.server.status_handler_us", "us", scaleBy(secs, 1e6)),
		single("campaign.server.poll_late_ms_p99", "ms", quantile(c.lateMs, 0.99)))

	// The campaign's last checkpoint, still in its store directory, through
	// the layers that wrote it.
	ckPath := filepath.Join(root, c.id, "search.ckpt")
	var ck *search.Checkpoint
	k := max(r.sc.layerIters/5, 2)
	loads := setupTimes(k, func(int) {
		var err error
		if ck, err = search.LoadCheckpointFS(fsim.OS, ckPath); err != nil {
			panic(fmt.Sprintf("load last checkpoint: %v", err))
		}
	})
	st, err := os.Stat(ckPath)
	if err != nil {
		panic(err)
	}
	scratch := r.fresh("ckpt")
	writes := setupTimes(k, func(int) {
		if err := ck.WriteFileFS(fsim.OS, filepath.Join(scratch, "search.ckpt")); err != nil {
			panic(fmt.Sprintf("write checkpoint: %v", err))
		}
	})
	store, _, err := campaign.OpenStoreFS(fsim.OS, r.fresh("store"))
	if err != nil {
		panic(err)
	}
	meta := campaign.Meta{ID: "c000001", Spec: campaignSpec(r.sc.horizon, r.seed), Status: campaign.StatusRunning}
	if err := store.Create(meta); err != nil {
		panic(err)
	}
	saveCk := setupTimes(k, func(int) {
		if err := store.SaveCheckpoint(meta.ID, ck); err != nil {
			panic(err)
		}
	})
	saveMeta := setupTimes(k, func(i int) {
		meta.Allocations = i
		if err := store.SaveMeta(meta); err != nil {
			panic(err)
		}
	})
	persist := float64(c.allocations) * (median(saveCk) + median(saveMeta))
	r.add(single("search.ckpt_bytes", "B", float64(st.Size())),
		timing("search.ckpt_write_ms", "ms", scaleBy(writes, 1e3)),
		timing("search.ckpt_load_ms", "ms", scaleBy(loads, 1e3)),
		timing("campaign.store_save_ckpt_ms", "ms", scaleBy(saveCk, 1e3)),
		timing("campaign.store_save_meta_ms", "ms", scaleBy(saveMeta, 1e3)),
		single("campaign.persist_frac", "fraction", persist/c.submitToDone),
		single("search.self_frac", "fraction", r.spans.selfFrac("campaign")),
		single("trace.overhead_frac", "fraction", c.submitToDone/plain.submitToDone-1))

	events, err := trace.ReadJSONL(bytes.NewReader(c.traceBody))
	if err != nil {
		r.fail(1, "campaign trace unreadable: %v", err)
	}
	var counts traceCounts
	counts.add(events)
	counts.emit(r)
	evalCounts(r, len(c.log.Results), c.log.CacheHits)

	spec := campaignSpec(r.sc.horizon, r.seed)
	bench, sp, err := spec.Build()
	if err != nil {
		panic(err)
	}
	tensorLayer(r)
	trainLayer(r)
	estimate := estimateLayer(r, bench, sp, spec.SearchConfig().Eval, uniqueArchs(c.log.Results))
	rlc := rlLayer(r, sp)
	perEvent := hpcLayer(r)
	r.none("x", "evaluator.pool_speedup")
	r.none("fraction", "evaluator.pool_efficiency")
	noReplay(r)
	noTable(r)

	acc := accounting{wall: c.submitToDone}
	acc.add("evaluator", float64(c.log.Evaluations), estimate)
	acc.add("rl", counts.updates(), rlc.updateS)
	acc.add("rl_sample", float64(counts.rounds), rlc.sampleS)
	acc.add("hpc", float64(counts.dispatches), perEvent)
	acc.add("campaign_persist", 1, persist)
	acc.emit(r)
}

// ---- layers that do no work on a workload -----------------------------

func noReplay(r *run) {
	r.none("ms", "search.replay_ms_p50", "search.replay_ms_p90")
}

func noCheckpoint(r *run) {
	r.none("B", "search.ckpt_bytes")
	r.none("ms", "search.ckpt_write_ms", "search.ckpt_load_ms")
}

func noTable(r *run) {
	r.none("s", "nasbench.table_build_s")
	r.none("ms", "nasbench.table_load_ms")
	r.none("count", "nasbench.lookups")
	r.none("ns", "nasbench.lookup_ns")
	r.none("us", "nasbench.wal_append_us")
}

func noCampaign(r *run) {
	r.none("count", "campaign.allocations")
	r.none("ms", "campaign.store_save_ckpt_ms", "campaign.store_save_meta_ms",
		"campaign.server.status_p90_ms", "campaign.server.status_p99_ms", "campaign.server.submit_ms",
		"campaign.server.log_ms", "campaign.server.trace_ms", "campaign.server.poll_late_ms_p99")
	r.none("us", "campaign.server.status_handler_us")
	r.none("fraction", "campaign.persist_frac")
}
