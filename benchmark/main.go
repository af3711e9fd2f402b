// Command benchmark is nasgo's performance instrument: four workloads, the
// end-to-end metrics a user of the system sees on each, and a per-layer
// ledger measured from outside the program under test (README.md).
//
//	go run ./benchmark                      every workload, end-to-end pass
//	go run ./benchmark -traced -out l.json  both passes, ledger written
//	go run ./benchmark -repeat 2            the suite twice, then compared
//	go run ./benchmark -compare a.json b.json
//	go run ./benchmark --workload live_search --seed 3 --seconds 20 --trace 0
//
// The last form is one measured run of one workload in this process; its
// final stdout line is the JSON object the BENCHMARK.json contract names.
// The suite forms re-exec this binary once per workload and pass, so GC
// state, arenas and gob's process-global wire IDs never leak between them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// result is what one workload pass reports: the child writes it to -out
// for the suite and reduces it to the contract line on stdout.
type result struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      uint64   `json:"seed"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digests are the SHA-256 of the workload's outputs by name; equal
	// names must hash equal across repetitions, passes and runs.
	Digests map[string]string `json:"digests"`
	Metrics []Metric          `json:"metrics"`
	// OpS is the median wall seconds of one operation of the workload — a
	// search, a tournament search, a campaign — on the end-to-end pass.
	OpS float64 `json:"op_s,omitempty"`
	// MeasuredS is the measured phase; ElapsedS the whole pass, set-up and
	// verification included — printed so budget drift is visible.
	MeasuredS float64 `json:"measured_s"`
	ElapsedS  float64 `json:"elapsed_s"`
}

// run is the context one workload pass executes in.
type run struct {
	sc   scale
	seed uint64
	// work is the pass's scratch directory on the real filesystem.
	work string
	res  *result
	// spans is non-nil on the traced pass.
	spans *spanLog
}

func (r *run) add(m ...Metric) { r.res.Metrics = append(r.res.Metrics, m...) }

// op records what one operation of the workload took, from its samples.
func (r *run) op(secs []float64) { r.res.OpS = median(secs) }

// attempt counts n operations; fail marks n of them failed with a reason.
func (r *run) attempt(n int) { r.res.Attempted += n }

func (r *run) fail(n int, format string, args ...any) {
	r.res.Failed += n
	if len(r.res.Failures) < 8 {
		r.res.Failures = append(r.res.Failures, fmt.Sprintf(format, args...))
	}
}

// verify records the digest of the output that seed determines and reports
// whether it agrees with the same output's earlier digest in this pass and
// with the committed digest, where one is committed for that seed.
func (r *run) verify(output string, seed uint64, got string) bool {
	name := fmt.Sprintf("%s-%d", output, seed)
	ok := true
	if prev, seen := r.res.Digests[name]; seen && prev != got {
		ok = false
	}
	r.res.Digests[name] = got
	if want, pinned := golden[goldenKey(r.res.Workload, r.sc.name, name)]; pinned && goldenArch() && want != got {
		ok = false
	}
	return ok
}

// fresh returns a new empty directory under the work dir.
func (r *run) fresh(pattern string) string {
	dir, err := os.MkdirTemp(r.work, pattern+"-*")
	if err != nil {
		panic(err)
	}
	return dir
}

// repeat is the measured phase: op, n times. The count is fixed before the
// phase starts, so a slower build does the same work and takes longer. A
// panic in op is one failed operation, not a dead benchmark.
func (r *run) repeat(n int, op func(i int)) {
	start := time.Now()
	for i := 0; i < n; i++ {
		func() {
			defer func() {
				if p := recover(); p != nil {
					r.attempt(1)
					r.fail(1, "repetition %d panicked: %v", i, p)
				}
			}()
			op(i)
		}()
	}
	r.res.MeasuredS = time.Since(start).Seconds()
}

// setupTimes runs a set-up n times and returns each wall time in seconds;
// the caller keeps what the last run built.
func setupTimes(n int, setup func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		t0 := time.Now()
		setup(i)
		out[i] = time.Since(t0).Seconds()
	}
	return out
}

type workload struct {
	name   string
	run    func(*run)
	traced func(*run)
}

var workloads = []workload{
	{"live_search", liveSearch, liveSearchTraced},
	{"tournament_rl", tournamentRL, tournamentRLTraced},
	{"tournament_sweep", tournamentSweep, tournamentSweepTraced},
	{"campaign_http", campaignHTTP, campaignHTTPTraced},
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print the contract line")
		seed    = flag.Uint64("seed", 1, "workload seed: search seeds, tournament base seed, campaign spec seeds")
		seconds = flag.Float64("seconds", 30, "length of each workload's measured phase on the reference host; sets the repetition counts")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end pass, 1 = traced per-layer pass")
		traced  = flag.Bool("traced", false, "suite: follow the end-to-end pass with the traced pass")
		smoke   = flag.Bool("smoke", false, "smoke scale: one repetition of a tiny version of every workload")
		out     = flag.String("out", "", "write the ledger (suite) or the pass result (-workload) here; the traced pass also writes <out>.spans.jsonl")
		repeat  = flag.Int("repeat", 1, "suite: run this many times and compare each later run with the first")
		compare = flag.Bool("compare", false, "compare two ledgers: -compare old.json new.json")
	)
	flag.Parse()
	// A benchmark process is short-lived and measures wall time; a crash in
	// the program under test should name every goroutine.
	debug.SetTraceback("all")

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	contract, err := loadContract(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	sc := fullScale(*seconds)
	if *smoke {
		sc = smokeScale
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: benchmark -compare old.json new.json"))
		}
		os.Exit(compareFiles(contract, flag.Arg(0), flag.Arg(1)))
	case *name != "":
		os.Exit(runChild(root, contract, *name, sc, *seed, *trace == 1, *out))
	default:
		os.Exit(runSuite(root, contract, sc, *seed, *traced, *repeat, *out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// findRoot locates the repository root — the directory holding
// BENCHMARK.json — from the repo root itself (go run ./benchmark) or from
// the package directory (go test).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "benchmark")); err == nil {
				return dir, nil
			}
		}
	}
	return "", fmt.Errorf("BENCHMARK.json and benchmark/ not found in . or ..; run from the repository root")
}

// runChild executes one pass of one workload in this process.
func runChild(root string, c *contract, name string, sc scale, seed uint64, traced bool, out string) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(c.workloadNames(), ", ")))
	}
	work, err := os.MkdirTemp(filepath.Join(root, "benchmark"), "work-")
	if err != nil {
		fatal(err)
	}
	r := &run{sc: sc, seed: seed, work: work,
		res: &result{Workload: name, Traced: traced, Seed: seed, Digests: map[string]string{}}}
	start := time.Now()
	func() {
		defer os.RemoveAll(work)
		defer func() {
			if p := recover(); p != nil {
				r.attempt(1)
				r.fail(1, "workload panicked: %v", p)
			}
		}()
		if traced {
			r.spans = &spanLog{t0: time.Now()}
			w.traced(r)
		} else {
			w.run(r)
		}
	}()
	r.res.ElapsedS = time.Since(start).Seconds()
	if r.res.Attempted == 0 {
		r.attempt(1)
		r.fail(1, "no operation ran")
	}
	if !traced {
		// The eighth end-to-end row. The contract line carries it as
		// failed/attempted instead: a healthy tree reads 0, and a contract
		// metric may not.
		r.add(Metric{Name: "failed_frac", Unit: "fraction", Value: r.res.failedFrac(), N: r.res.Attempted})
	}

	// The traced pass prints every per-layer metric. The end-to-end pass
	// prints the metrics that mean something on this workload; the contract
	// line carries a stand-in for the others. A metric emitted twice, or a
	// per-layer one not at all, is a benchmark bug and fails the pass.
	want := c.EndToEnd
	if traced {
		want = c.PerLayer
	}
	byName := map[string]Metric{}
	for _, m := range r.res.Metrics {
		if _, dup := byName[m.Name]; dup {
			r.fail(1, "metric %s emitted twice", m.Name)
		}
		byName[m.Name] = m
	}
	line := contractLine{Metrics: map[string]contractValue{}}
	for _, spec := range want {
		m, ok := byName[spec.Name]
		switch {
		case ok:
			fmt.Printf("%-18s %-36s %14.6g %-8s n=%d%s\n", name, spec.Name, m.Value, spec.Unit, m.N, tail(m))
		case traced:
			r.fail(1, "metric %s not emitted", spec.Name)
		default:
			m.Value = standIn(spec, r.res.OpS)
		}
		line.Metrics[spec.Name] = contractValue{Value: m.Value, Unit: spec.Unit}
	}
	if m, ok := byName["failed_frac"]; ok {
		fmt.Printf("%-18s %-36s %14.6g %-8s n=%d\n", name, m.Name, m.Value, m.Unit, m.N)
	}
	line.Attempted, line.Failed, line.Correct = r.res.Attempted, r.res.Failed, r.res.Failed == 0
	for _, f := range r.res.Failures {
		fmt.Printf("%-18s FAILED: %s\n", name, f)
	}
	fmt.Printf("%-18s measured %.1f s, elapsed %.1f s, attempted %d, failed %d\n",
		name, r.res.MeasuredS, r.res.ElapsedS, r.res.Attempted, r.res.Failed)

	if out != "" {
		if err := writeJSON(out, r.res); err != nil {
			fatal(err)
		}
		if traced {
			if err := r.spans.writeJSONL(out + ".spans.jsonl"); err != nil {
				fatal(err)
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return 0
}

func tail(m Metric) string {
	if m.HighPct > 0 {
		return fmt.Sprintf(" p%g=%.6g", m.HighPct, m.High)
	}
	return ""
}

// standIn is what the contract line carries for an end-to-end metric that
// means nothing on a workload (status_p50_ms where no one polls a status):
// the driver wants every metric from every run and none may read 0, so the
// metric reads as the workload's operation time, or rate, in its own unit.
// It worsens when the workload does, in the metric's own direction. It is
// in no ledger, and -compare never sees it.
func standIn(spec metricSpec, opS float64) float64 {
	if opS == 0 {
		return 0
	}
	switch spec.Unit {
	case "s":
		return opS
	case "ms":
		return opS * 1e3
	case "1/s":
		return 1 / opS
	case "1/min":
		return 60 / opS
	}
	panic(fmt.Sprintf("no stand-in for %s in %s", spec.Name, spec.Unit))
}

// contractLine is the last stdout line of a -workload run.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger is the schema-stable record of one suite run.
type ledger struct {
	Schema  string  `json:"schema"`
	Env     envInfo `json:"env"`
	Seed    uint64  `json:"seed"`
	Scale   string  `json:"scale"`
	Seconds float64 `json:"seconds"`
	// Workloads holds, per workload, the end-to-end pass and (with
	// -traced) the per-layer pass.
	Workloads []ledgerWorkload `json:"workloads"`
}

type ledgerWorkload struct {
	Name     string  `json:"name"`
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer,omitempty"`
}

const ledgerSchema = "nasgo-bench/1"

type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readEnv(root string) envInfo {
	e := envInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: "unknown", Commit: "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(b))
	}
	return e
}

// runSuite re-execs this binary once per workload and pass, prints every
// metric, and writes the ledger. With repeat > 1 each later run is compared
// with the first by the -compare rules.
func runSuite(root string, c *contract, sc scale, seed uint64, traced bool, repeat int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(filepath.Join(root, "benchmark"), "work-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(work)

	code := 0
	var first *ledger
	for rep := 1; rep <= repeat; rep++ {
		start := time.Now()
		l := &ledger{Schema: ledgerSchema, Env: readEnv(root), Seed: seed, Scale: sc.name, Seconds: sc.seconds}
		for _, w := range workloads {
			lw := ledgerWorkload{Name: w.name}
			lw.EndToEnd = execPass(self, work, w.name, sc, seed, false, "")
			if traced {
				spans := ""
				if out != "" {
					spans = fmt.Sprintf("%s.%s.spans.jsonl", out, w.name)
				}
				lw.PerLayer = execPass(self, work, w.name, sc, seed, true, spans)
				crossCheck(lw.EndToEnd, lw.PerLayer)
			}
			l.Workloads = append(l.Workloads, lw)
		}
		fmt.Printf("suite run %d/%d: %.1f s\n", rep, repeat, time.Since(start).Seconds())
		for _, lw := range l.Workloads {
			for _, p := range []*result{lw.EndToEnd, lw.PerLayer} {
				if p != nil && p.Failed > 0 {
					fmt.Printf("%s: %d of %d operations failed: %s\n", lw.Name, p.Failed, p.Attempted, strings.Join(p.Failures, "; "))
					code = 1
				}
			}
		}
		if out != "" {
			path := out
			if repeat > 1 {
				path = fmt.Sprintf("%s.%d", out, rep)
			}
			if err := writeJSON(path, l); err != nil {
				fatal(err)
			}
			fmt.Println("ledger:", path)
		}
		if first == nil {
			first = l
		} else if compareLedgers(c, first, l, true) != 0 {
			code = 1
		}
	}
	return code
}

// execPass runs one workload pass in a fresh child process and loads what
// it reported. A child that dies reports one failed operation.
func execPass(self, work, name string, sc scale, seed uint64, traced bool, spansOut string) *result {
	resPath := filepath.Join(work, fmt.Sprintf("%s.%v.json", name, traced))
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(sc.seconds), "-out", resPath}
	if sc.name == smokeScale.name {
		args = append(args, "-smoke")
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	res := &result{Workload: name, Traced: traced, Seed: seed, Digests: map[string]string{}}
	if err := cmd.Run(); err != nil {
		res.Attempted, res.Failed = 1, 1
		res.Failures = []string{fmt.Sprintf("child process: %v", err)}
		return res
	}
	b, err := os.ReadFile(resPath)
	if err == nil {
		err = json.Unmarshal(b, res)
	}
	if err != nil {
		res.Attempted, res.Failed = 1, 1
		res.Failures = []string{fmt.Sprintf("child result: %v", err)}
	}
	if traced && spansOut != "" {
		if err := os.Rename(resPath+".spans.jsonl", spansOut); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: keep spans:", err)
		}
	}
	return res
}

// crossCheck holds the traced pass to the end-to-end pass's outputs: the
// same output must hash the same with the recorder and wrappers attached.
func crossCheck(plain, traced *result) {
	for name, want := range plain.Digests {
		if got, ok := traced.Digests[name]; ok && got != want {
			traced.Attempted++
			traced.Failed++
			traced.Failures = append(traced.Failures, fmt.Sprintf("output %s differs between the end-to-end and the traced pass", name))
		}
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
