package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nasgo/internal/fsim"
)

// newTestServer wires a manager into an httptest server. The caller gets
// both: HTTP for the API surface, the manager for draining.
func newTestServer(t *testing.T, opts Options, sopts ServerOptions) (*httptest.Server, *Manager) {
	t.Helper()
	mgr := newTestManager(t, t.TempDir(), opts)
	mgr.Start()
	srv := httptest.NewServer(NewServer(mgr, sopts).Handler())
	t.Cleanup(func() {
		srv.Close()
		mgr.Drain()
	})
	return srv, mgr
}

func httpDo(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

// TestServerRejectsBadRequests drills the defensive HTTP edges: malformed
// JSON, oversized bodies, strict-decoder violations, unknown IDs, and bad
// cursors all produce structured errors without touching the manager.
func TestServerRejectsBadRequests(t *testing.T) {
	srv, mgr := newTestServer(t, fastOpts(t), ServerOptions{})

	cases := []struct {
		label  string
		method string
		path   string
		body   string
		status int
	}{
		{"not json", "POST", "/campaigns", `this is not json`, http.StatusBadRequest},
		{"truncated json", "POST", "/campaigns", `{"bench":"Combo"`, http.StatusBadRequest},
		{"oversized body", "POST", "/campaigns", `{"name":"` + strings.Repeat("x", MaxSpecBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown field", "POST", "/campaigns", `{"bench":"Combo","horizon":400,"bogus":1}`, http.StatusUnprocessableEntity},
		{"invalid spec", "POST", "/campaigns", `{"bench":"Combo","horizon":-4}`, http.StatusUnprocessableEntity},
		{"empty body", "POST", "/campaigns", ``, http.StatusUnprocessableEntity},
		{"unknown id status", "GET", "/campaigns/c99999999", ``, http.StatusNotFound},
		{"unknown id log", "GET", "/campaigns/c99999999/log", ``, http.StatusNotFound},
		{"unknown id trace", "GET", "/campaigns/c99999999/trace", ``, http.StatusNotFound},
		{"unknown id pause", "POST", "/campaigns/c99999999/pause", ``, http.StatusNotFound},
		{"unknown id cancel", "POST", "/campaigns/c99999999/cancel", ``, http.StatusNotFound},
		{"bad trace cursor", "GET", "/campaigns/c99999999/trace?since=banana", ``, http.StatusBadRequest},
		{"negative trace cursor", "GET", "/campaigns/c99999999/trace?since=-3", ``, http.StatusBadRequest},
		{"wrong method", "PUT", "/campaigns", `{}`, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		status, body, _ := httpDo(t, tc.method, srv.URL+tc.path, []byte(tc.body))
		if status != tc.status {
			t.Errorf("%s: got %d, want %d (body %s)", tc.label, status, tc.status, body)
		}
		if tc.status != http.StatusMethodNotAllowed {
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
				t.Errorf("%s: error body not structured: %q (%v)", tc.label, body, err)
			}
		}
	}
	if n := len(mgr.List()); n != 0 {
		t.Fatalf("rejected requests created %d campaigns", n)
	}
}

// TestShortServerSmoke is the fast-tier end-to-end check: submit a tiny
// campaign over HTTP, watch it to completion, read its log, tail its trace
// with the ?since cursor, and exercise the control-plane idempotency and
// conflict answers — all through the public API only.
func TestShortServerSmoke(t *testing.T) {
	srv, _ := newTestServer(t, fastOpts(t), ServerOptions{})

	specJSON, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	status, body, hdr := httpDo(t, "POST", srv.URL+"/campaigns", specJSON)
	if status != http.StatusCreated {
		t.Fatalf("submit: %d %s", status, body)
	}
	var info Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID == "" || info.Status != StatusRunning {
		t.Fatalf("submit returned %+v", info)
	}
	if loc := hdr.Get("Location"); loc != "/campaigns/"+info.ID {
		t.Fatalf("Location header %q", loc)
	}

	// Tail the trace while the campaign runs: cursors must be monotone and
	// events must only ever be appended.
	var cursor int64
	var events int
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish in time")
		}
		st, body, hdr := httpDo(t, "GET", fmt.Sprintf("%s/campaigns/%s/trace?since=%d", srv.URL, info.ID, cursor), nil)
		if st != http.StatusOK {
			t.Fatalf("trace: %d %s", st, body)
		}
		if ct := hdr.Get("Content-Type"); ct != "application/jsonl" {
			t.Fatalf("trace Content-Type %q", ct)
		}
		var next int64
		if _, err := fmt.Sscan(hdr.Get("X-Trace-Next"), &next); err != nil {
			t.Fatalf("X-Trace-Next header: %v", err)
		}
		if next < cursor {
			t.Fatalf("trace cursor went backwards: %d -> %d", cursor, next)
		}
		events += countLines(body)
		cursor = next

		st, body, _ = httpDo(t, "GET", srv.URL+"/campaigns/"+info.ID, nil)
		if st != http.StatusOK {
			t.Fatalf("status: %d %s", st, body)
		}
		var cur Info
		if err := json.Unmarshal(body, &cur); err != nil {
			t.Fatal(err)
		}
		if cur.Status == StatusDone {
			break
		}
		if cur.Status.Terminal() {
			t.Fatalf("campaign ended %s: %s", cur.Status, cur.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if events == 0 {
		t.Fatal("trace stream stayed empty across the whole campaign")
	}

	// The final log served over HTTP is the exact marshaling WriteJSONFS
	// persists — and matches the uninterrupted in-process run.
	st, body, _ := httpDo(t, "GET", srv.URL+"/campaigns/"+info.ID+"/log", nil)
	if st != http.StatusOK {
		t.Fatalf("log: %d %s", st, body)
	}
	want := logBytes(t, referenceRun(t, testSpec()))
	if !bytes.Equal(bytes.TrimRight(body, "\n"), want) {
		t.Fatal("HTTP log differs from the uninterrupted nas-search run")
	}

	// Leaderboard includes the finished campaign with its best reward.
	st, body, _ = httpDo(t, "GET", srv.URL+"/leaderboard", nil)
	if st != http.StatusOK {
		t.Fatalf("leaderboard: %d", st)
	}
	var rows []LeaderboardRow
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].ID != info.ID || rows[0].BestReward == 0 || rows[0].Evals == 0 {
		t.Fatalf("leaderboard %+v", rows)
	}

	// Control-plane conflicts on a DONE campaign are 409s; healthz lives.
	if st, _, _ := httpDo(t, "POST", srv.URL+"/campaigns/"+info.ID+"/cancel", nil); st != http.StatusConflict {
		t.Fatalf("cancel DONE: %d, want 409", st)
	}
	if st, _, _ := httpDo(t, "POST", srv.URL+"/campaigns/"+info.ID+"/resume", nil); st != http.StatusConflict {
		t.Fatalf("resume DONE: %d, want 409", st)
	}
	if st, _, _ := httpDo(t, "GET", srv.URL+"/healthz", nil); st != http.StatusOK {
		t.Fatalf("healthz: %d", st)
	}
}

func countLines(b []byte) int {
	n := 0
	for _, c := range b {
		if c == '\n' {
			n++
		}
	}
	return n
}

// TestServerPauseCancelIdempotent walks the control plane over HTTP:
// double-pause and double-cancel return 200 with unchanged state, and the
// pause→resume→cancel chain lands in CANCELLED.
func TestServerPauseCancelIdempotent(t *testing.T) {
	srv, _ := newTestServer(t, fastOpts(t), ServerOptions{})
	spec := testSpec()
	spec.Horizon = 2000
	spec.Walltime = 100
	specJSON, _ := json.Marshal(spec)
	status, body, _ := httpDo(t, "POST", srv.URL+"/campaigns", specJSON)
	if status != http.StatusCreated {
		t.Fatalf("submit: %d %s", status, body)
	}
	var info Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	base := srv.URL + "/campaigns/" + info.ID

	waitHTTP := func(want Status) Info {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for time.Now().Before(deadline) {
			st, body, _ := httpDo(t, "GET", base, nil)
			if st != http.StatusOK {
				t.Fatalf("status: %d %s", st, body)
			}
			var cur Info
			if err := json.Unmarshal(body, &cur); err != nil {
				t.Fatal(err)
			}
			if cur.Status == want && !cur.Running {
				return cur
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("campaign never reached %s", want)
		return Info{}
	}

	if st, body, _ := httpDo(t, "POST", base+"/pause", nil); st != http.StatusOK {
		t.Fatalf("pause: %d %s", st, body)
	}
	waitHTTP(StatusPaused)
	// Second pause: 200, still paused.
	st2, body2, _ := httpDo(t, "POST", base+"/pause", nil)
	var again Info
	if err := json.Unmarshal(body2, &again); err != nil {
		t.Fatal(err)
	}
	if st2 != http.StatusOK || again.Status != StatusPaused {
		t.Fatalf("double pause: %d %+v", st2, again)
	}
	if st, body, _ := httpDo(t, "POST", base+"/resume", nil); st != http.StatusOK {
		t.Fatalf("resume: %d %s", st, body)
	}
	if st, body, _ := httpDo(t, "POST", base+"/cancel", nil); st != http.StatusOK {
		t.Fatalf("cancel: %d %s", st, body)
	}
	waitHTTP(StatusCancelled)
	// Second cancel: 200, still cancelled; resume now conflicts.
	st3, body3, _ := httpDo(t, "POST", base+"/cancel", nil)
	if err := json.Unmarshal(body3, &again); err != nil {
		t.Fatal(err)
	}
	if st3 != http.StatusOK || again.Status != StatusCancelled {
		t.Fatalf("double cancel: %d %+v", st3, again)
	}
	if st, _, _ := httpDo(t, "POST", base+"/resume", nil); st != http.StatusConflict {
		t.Fatalf("resume after cancel: %d, want 409", st)
	}
}

// TestServerConcurrentSubmits races submissions against list/status/
// leaderboard reads — the -race gate for the HTTP surface. Every submit
// must get a unique ID and every read a consistent snapshot.
func TestServerConcurrentSubmits(t *testing.T) {
	srv, mgr := newTestServer(t, fastOpts(t), ServerOptions{})
	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec := testSpec()
			spec.Seed = uint64(1000 + i)
			spec.Name = fmt.Sprintf("racer-%d", i)
			// Too long to finish before the cleanup cancel, which must find
			// every racer still running (cancelling a DONE campaign is 409).
			spec.Horizon = 20000
			body, _ := json.Marshal(spec)
			st, resp, _ := httpDo(t, "POST", srv.URL+"/campaigns", body)
			if st != http.StatusCreated {
				errs[i] = fmt.Errorf("submit %d: status %d %s", i, st, resp)
				return
			}
			var info Info
			if err := json.Unmarshal(resp, &info); err != nil {
				errs[i] = err
				return
			}
			ids[i] = info.ID
		}(i)
	}
	// Hammer the read endpoints while the submits land.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				httpDo(t, "GET", srv.URL+"/campaigns", nil)
				httpDo(t, "GET", srv.URL+"/leaderboard", nil)
			}
		}()
	}
	wg.Wait()
	close(stopReads)
	readers.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if id == "" || seen[id] {
			t.Fatalf("duplicate or missing campaign ID in %v", ids)
		}
		seen[id] = true
	}
	if got := len(mgr.List()); got != n {
		t.Fatalf("List has %d campaigns, want %d", got, n)
	}
	// Cancel them all — the test's work is done; don't burn the 1-CPU box
	// finishing 8 searches.
	for _, id := range ids {
		if st, body, _ := httpDo(t, "POST", srv.URL+"/campaigns/"+id+"/cancel", nil); st != http.StatusOK {
			t.Fatalf("cancel %s: %d %s", id, st, body)
		}
	}
	for _, id := range ids {
		deadline := time.Now().Add(time.Minute)
		for {
			info, err := mgr.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if info.Status == StatusCancelled && !info.Running {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("campaign %s stuck at %s after cancel", id, info.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestServerDrainingRejectsSubmit: a draining manager answers 503 to new
// submissions while read endpoints keep serving.
func TestServerDrainingRejectsSubmit(t *testing.T) {
	mgr := newTestManager(t, t.TempDir(), fastOpts(t))
	mgr.Start()
	srv := httptest.NewServer(NewServer(mgr, ServerOptions{}).Handler())
	defer srv.Close()
	mgr.Drain()
	body, _ := json.Marshal(testSpec())
	if st, resp, _ := httpDo(t, "POST", srv.URL+"/campaigns", body); st != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d %s", st, resp)
	}
	if st, _, _ := httpDo(t, "GET", srv.URL+"/campaigns", nil); st != http.StatusOK {
		t.Fatalf("list while draining: %d", st)
	}
}

// TestServerSubmitStoreFailure: a store that cannot create the campaign is
// the server's condition, never the client's — ENOSPC answers 507 and latches
// degraded health exactly as a full disk at a walltime boundary does, EIO
// answers 500; neither is the 422 of an invalid spec.
func TestServerSubmitStoreFailure(t *testing.T) {
	for _, tc := range []struct {
		name     string
		faults   fsim.Faults
		status   int
		diskFull bool
	}{
		{"enospc", fsim.Faults{DiskBudget: 1}, http.StatusInsufficientStorage, true},
		{"eio", fsim.Faults{WriteErrEvery: 1}, http.StatusInternalServerError, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOpts(t)
			opts.FS = fsim.NewFaultFS(fsim.NewMemFS(), tc.faults)
			mgr := newTestManager(t, "/campaigns", opts)
			srv := httptest.NewServer(NewServer(mgr, ServerOptions{}).Handler())
			defer srv.Close()
			body, _ := json.Marshal(testSpec())
			if st, resp, _ := httpDo(t, "POST", srv.URL+"/campaigns", body); st != tc.status {
				t.Fatalf("submit: %d %s, want %d", st, resp, tc.status)
			}
			_, resp, _ := httpDo(t, "GET", srv.URL+"/healthz", nil)
			var h Health
			if err := json.Unmarshal(resp, &h); err != nil {
				t.Fatal(err)
			}
			if h.DiskFull != tc.diskFull || (h.Status == "degraded") != tc.diskFull || mgr.Health() != h {
				t.Fatalf("healthz %s (manager %+v), want diskFull=%v", resp, mgr.Health(), tc.diskFull)
			}
		})
	}
}
