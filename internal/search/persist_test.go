package search

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nasgo/internal/fsim"
)

func TestLogJSONRoundTrip(t *testing.T) {
	skipSlow(t)
	log := runSmall(t, RDM, 1)
	path := filepath.Join(t.TempDir(), "log.json")
	if err := log.WriteJSONFS(fsim.OS, path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLogFS(fsim.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bench != log.Bench || got.SpaceName != log.SpaceName {
		t.Fatalf("identity lost: %s/%s", got.Bench, got.SpaceName)
	}
	if len(got.Results) != len(log.Results) {
		t.Fatalf("results %d, want %d", len(got.Results), len(log.Results))
	}
	for i := range got.Results {
		a, b := got.Results[i], log.Results[i]
		if a.Key != b.Key || a.Reward != b.Reward || a.FinishTime != b.FinishTime {
			t.Fatalf("result %d corrupted", i)
		}
		if len(a.Choices) != len(b.Choices) {
			t.Fatalf("result %d lost choices", i)
		}
	}
	if got.EndTime != log.EndTime || got.Converged != log.Converged {
		t.Fatal("run metadata corrupted")
	}
	// TopK works identically on the reloaded log.
	ta, tb := got.TopK(3), log.TopK(3)
	for i := range ta {
		if ta[i].Key != tb[i].Key {
			t.Fatal("TopK differs after round trip")
		}
	}
}

// TestWriteJSONCrashSafety simulates the failure WriteJSONFS's atomicity
// guards against: a writer killed mid-write. A non-atomic writer would
// leave a truncated JSON prefix where the next tool expects a log; the
// staged write leaves either the old complete file or the new one.
func TestWriteJSONCrashSafety(t *testing.T) {
	skipSlow(t)
	log := runSmall(t, RDM, 1)
	dir := t.TempDir()
	path := filepath.Join(dir, "log.json")
	if err := log.WriteJSONFS(fsim.OS, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// The partial file a crashed non-atomic writer would leave: LoadLogFS
	// must reject it at every truncation point, never hand back a
	// zero-valued log.
	crashed := filepath.Join(dir, "crashed.json")
	for _, n := range []int{0, 1, len(before) / 4, len(before) / 2, len(before) - 1} {
		if werr := os.WriteFile(crashed, before[:n], 0o644); werr != nil {
			t.Fatal(werr)
		}
		if _, lerr := LoadLogFS(fsim.OS, crashed); lerr == nil {
			t.Fatalf("log truncated to %d/%d bytes was accepted", n, len(before))
		}
	}

	// Rewriting over an existing log stages through a temp file and leaves
	// no litter: afterwards the directory holds exactly the two logs, and
	// the target still parses to identical bytes.
	if err := log.WriteJSONFS(fsim.OS, path); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("rewrite changed the log bytes")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("temp files left behind: %v", entries)
	}
	if _, err := LoadLogFS(fsim.OS, path); err != nil {
		t.Fatalf("rewritten log rejected: %v", err)
	}
}

func TestLoadLogErrors(t *testing.T) {
	if _, err := LoadLogFS(fsim.OS, "/does/not/exist.json"); err == nil {
		t.Fatal("expected error for missing file")
	}
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLogFS(fsim.OS, path); err == nil {
		t.Fatal("expected parse error")
	}
}

// TestLoadLogValidation: structurally valid JSON that is not a well-formed
// search log must be rejected with a descriptive error, never returned as a
// zero-valued Log.
func TestLoadLogValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, json, wantErr string
	}{
		{"empty-object", `{}`, "Strategy"},
		{"wrong-schema", `{"foo": 1, "bar": [2, 3]}`, "Strategy"},
		{"unknown-strategy", `{"Bench":"Combo","Config":{"Strategy":"dqn","Agents":3}}`, "strategy"},
		{"missing-agents", `{"Bench":"Combo","Config":{"Strategy":"a3c"}}`, "Agents"},
		{"missing-bench", `{"Config":{"Strategy":"a3c","Agents":3}}`, "benchmark"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(path, []byte(c.json), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadLogFS(fsim.OS, path)
		if err == nil {
			t.Fatalf("%s: expected validation error", c.name)
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Fatalf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
	// A minimal well-formed log still loads.
	good := filepath.Join(dir, "good.json")
	if err := os.WriteFile(good, []byte(`{"Bench":"Combo","SpaceName":"s","Config":{"Strategy":"rdm","Agents":1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLogFS(fsim.OS, good); err != nil {
		t.Fatalf("minimal valid log rejected: %v", err)
	}
}
