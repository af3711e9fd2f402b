package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"nasgo"
)

// TestMain makes the test binary nas-search itself when NAS_SEARCH_MAIN is
// set, so a test can run the command in a process of its own.
func TestMain(m *testing.M) {
	if os.Getenv("NAS_SEARCH_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTopRowsMarksCacheHits: TopK can represent an architecture by a cache
// hit, which ran no task; its row says so instead of printing a task time
// of 0.
func TestTopRowsMarksCacheHits(t *testing.T) {
	log := &nasgo.SearchLog{Results: []*nasgo.EvalResult{
		{Key: "a", Reward: 0.5, Params: 10, Cached: true, FinishTime: 30},
		{Key: "a", Reward: 0.5, Params: 10, Duration: 42, FinishTime: 72},
		{Key: "b", Reward: 0.4, Params: 20, Duration: 37, FinishTime: 80},
	}}
	rows := topRows(log.TopK(2))
	if len(rows) != 2 || rows[0][3] != "cached" || rows[1][3] != "37" {
		t.Fatalf("rows %q, want a's cached hit first, then b's 37 s", rows)
	}
}

// TestProfilingLeavesLogUnchanged: -cpuprofile and -memprofile only
// observe. A small search writes the same log bytes and prints the same
// report with both profiles on as with neither, and both profiles are
// written.
func TestProfilingLeavesLogUnchanged(t *testing.T) {
	dir := t.TempDir()
	run := func(name string, extra ...string) (logBytes, stdout []byte) {
		t.Helper()
		out := filepath.Join(dir, "log.json")
		args := append([]string{"-agents", "1", "-workers", "2", "-horizon", "600",
			"-out", out, "-checkpoint", filepath.Join(dir, name+".ckpt")}, extra...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "NAS_SEARCH_MAIN=1")
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if logBytes, err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
		return logBytes, stdout
	}
	plainLog, plainOut := run("plain")
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profLog, profOut := run("profiled", "-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(plainLog, profLog) {
		t.Fatal("the search log differs with profiling on")
	}
	if !bytes.Equal(plainOut, profOut) {
		t.Fatalf("the printed report differs with profiling on:\n%s\nwithout:\n%s", profOut, plainOut)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s not written: %v", p, err)
		}
	}
}
