package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.AttachClock(func() float64 { return 1 })
	r.Emit(Event{Cat: CatSim, Name: EvDispatch})
	r.Reset()
	if r.Dropped() != 0 || r.Events() != nil {
		t.Fatalf("nil recorder leaked state: dropped=%d", r.Dropped())
	}
}

func TestEmitStampsClock(t *testing.T) {
	r := NewRecorder(8)
	now := 0.0
	r.AttachClock(func() float64 { return now })
	now = 3.5
	r.Emit(Event{Time: 99, Cat: CatSim, Name: EvDispatch, Node: None, Agent: None})
	evs := r.Events()
	if len(evs) != 1 || evs[0].Time != 3.5 {
		t.Fatalf("expected clock-stamped time 3.5, got %+v", evs)
	}
	// Without a clock the caller's time stands.
	r2 := NewRecorder(8)
	r2.Emit(Event{Time: 7, Cat: CatSim, Name: EvDispatch})
	if got := r2.Events()[0].Time; got != 7 {
		t.Fatalf("expected caller time 7, got %g", got)
	}
}

func TestRingWrap(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 5; i++ {
		r.Emit(Event{Time: float64(i), Cat: CatSim, Name: EvDispatch})
	}
	if len(r.buf) != 3 {
		t.Fatalf("len = %d, want 3", len(r.buf))
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", r.Dropped())
	}
	evs := r.Events()
	var times []float64
	for _, ev := range evs {
		times = append(times, ev.Time)
	}
	if !reflect.DeepEqual(times, []float64{2, 3, 4}) {
		t.Fatalf("ring order wrong: %v", times)
	}
	r.Reset()
	if len(r.buf) != 0 || r.Dropped() != 0 {
		t.Fatal("reset did not clear")
	}
	r.Emit(Event{Time: 9, Cat: CatSim, Name: EvDispatch})
	if got := r.Events()[0].Time; got != 9 {
		t.Fatalf("post-reset emit lost: %g", got)
	}
}

func TestDefaultCapacity(t *testing.T) {
	if NewRecorder(0).cap != DefaultCapacity || NewRecorder(-1).cap != DefaultCapacity {
		t.Fatal("zero/negative capacity should select DefaultCapacity")
	}
}

func sample() []Event {
	return []Event{
		{Time: 0, Kind: KindInstant, Cat: CatSim, Name: EvDispatch, Node: None, Agent: None},
		{Time: 1.5, Kind: KindCounter, Cat: CatBalsam, Name: EvQueueDepth, Node: None, Agent: None, Value: 4},
		{Time: 2, Kind: KindInstant, Cat: CatBalsam, Name: EvJobRun, Node: 2, Agent: 0, Job: 17},
		{Time: 5, Dur: 3, Kind: KindSpan, Cat: CatEval, Name: EvResult, Node: 2, Agent: 0, Job: 17, Value: 0.42, Detail: "ok"},
		{Time: 5, Kind: KindInstant, Cat: CatFault, Name: EvNodeDown, Node: 1, Agent: None},
		{Time: 6, Kind: KindCounter, Cat: CatBalsam, Name: EvBusyNodes, Node: None, Agent: None, Value: 2},
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := sample()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestReadJSONLRejects(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"unknown field", `{"t":0,"cat":"sim","name":"dispatch","node":-1,"agent":-1,"bogus":1}`},
		{"missing cat", `{"t":0,"name":"dispatch","node":-1,"agent":-1}`},
		{"missing name", `{"t":0,"cat":"sim","node":-1,"agent":-1}`},
		{"bad kind", `{"t":0,"k":7,"cat":"sim","name":"dispatch","node":-1,"agent":-1}`},
		{"negative kind", `{"t":0,"k":-1,"cat":"sim","name":"dispatch","node":-1,"agent":-1}`},
		{"not json", `garbage`},
		{"trailing data", `{"t":0,"cat":"sim","name":"dispatch","node":-1,"agent":-1} {"x":1}`},
		{"wrong type", `{"t":"zero","cat":"sim","name":"dispatch","node":-1,"agent":-1}`},
		{"array not object", `[1,2,3]`},
	}
	for _, c := range cases {
		if _, err := ReadJSONL(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: expected error, got none", c.name)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("%s: error should carry line number: %v", c.name, err)
		}
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	input := "\n" + `{"t":1,"cat":"sim","name":"dispatch","node":-1,"agent":-1}` + "\n\n"
	evs, err := ReadJSONL(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Time != 1 {
		t.Fatalf("blank-line handling wrong: %+v", evs)
	}
}

func TestReadJSONLEmpty(t *testing.T) {
	evs, err := ReadJSONL(strings.NewReader(""))
	if err != nil || evs != nil {
		t.Fatalf("empty input: evs=%v err=%v", evs, err)
	}
}

func TestDigestDistinguishesTraces(t *testing.T) {
	a := sample()
	b := sample()
	if Digest(a) != Digest(b) {
		t.Fatal("identical traces must digest identically")
	}
	b[3].Value += 1e-9
	if Digest(a) == Digest(b) {
		t.Fatal("differing traces must digest differently")
	}
	if Digest(nil) != Digest([]Event{}) {
		t.Fatal("empty digests must agree")
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, sample()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	// sample() uses nodes {None, 1, 2} → pids {0, 2, 3} → 3 metadata
	// entries + 6 events.
	if len(doc.TraceEvents) != 9 {
		t.Fatalf("expected 9 chrome events, got %d", len(doc.TraceEvents))
	}
	var metas, spans, counters, instants int
	for _, ce := range doc.TraceEvents {
		switch ce["ph"] {
		case "M":
			metas++
		case "X":
			spans++
			// Span is positioned at its start: ts = (5-3)*1e6.
			if ce["ts"].(float64) != 2e6 || ce["dur"].(float64) != 3e6 {
				t.Fatalf("span placement wrong: %v", ce)
			}
		case "C":
			counters++
		case "i":
			instants++
		}
	}
	if metas != 3 || spans != 1 || counters != 2 || instants != 3 {
		t.Fatalf("phase counts: M=%d X=%d C=%d i=%d", metas, spans, counters, instants)
	}
}

func TestWriteChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("empty chrome export must still be valid JSON")
	}
}

func TestSummarize(t *testing.T) {
	m := Summarize(sample())
	if m.Events != 6 {
		t.Fatalf("events = %d", m.Events)
	}
	if m.ByCat[CatBalsam] != 3 || m.ByCat[CatSim] != 1 {
		t.Fatalf("ByCat wrong: %v", m.ByCat)
	}
	st := m.Spans[CatEval+"/"+EvResult]
	if st.Count != 1 || st.TotalDur != 3 {
		t.Fatalf("span stat wrong: %+v", st)
	}
	if m.Counters[CatBalsam+"/"+EvQueueDepth] != 4 {
		t.Fatalf("counter wrong: %v", m.Counters)
	}
	if m.Start != 0 || m.End != 6 {
		t.Fatalf("range wrong: [%g, %g]", m.Start, m.End)
	}
	text := m.Format()
	for _, want := range []string{"6 events", "span", "counter", CatEval} {
		if !strings.Contains(text, want) {
			t.Fatalf("Format() missing %q:\n%s", want, text)
		}
	}
	if empty := Summarize(nil); empty.Events != 0 || empty.Format() == "" {
		t.Fatal("empty summary should format cleanly")
	}
}

func TestFilterAndWithoutCat(t *testing.T) {
	evs := append(sample(), Event{Time: 9, Cat: CatCkpt, Name: EvCut, Node: None, Agent: None})
	kept := WithoutCat(evs, CatCkpt)
	if len(kept) != len(evs)-1 {
		t.Fatalf("WithoutCat kept %d of %d", len(kept), len(evs))
	}
	for _, ev := range kept {
		if ev.Cat == CatCkpt {
			t.Fatal("ckpt event survived filter")
		}
	}
	only := Filter(evs, func(ev Event) bool { return ev.Kind == KindCounter })
	if len(only) != 2 {
		t.Fatalf("Filter kept %d, want 2", len(only))
	}
	if Filter(nil, func(Event) bool { return true }) != nil {
		t.Fatal("Filter(nil) should be nil")
	}
}

// TestEventsSince: the absolute-index cursor reads the stream exactly
// once, incrementally, including across ring wrap (where the dropped gap
// is skipped, not re-served).
func TestEventsSince(t *testing.T) {
	r := NewRecorder(4)
	var got []Event
	var cursor int64
	emit := func(n int) {
		for i := 0; i < n; i++ {
			r.Emit(Event{Time: float64(len(got) + i), Cat: CatSim, Name: "e", Node: None, Agent: None})
		}
		var evs []Event
		evs, cursor = r.EventsSince(cursor)
		got = append(got, evs...)
	}
	emit(3) // no wrap yet
	if cursor != 3 || len(got) != 3 {
		t.Fatalf("after 3 events: cursor=%d, got %d events", cursor, len(got))
	}
	emit(2) // total 5 > cap 4: ring wrapped, but cursor already past the drop
	if cursor != 5 || len(got) != 5 {
		t.Fatalf("after 5 events: cursor=%d, got %d events", cursor, len(got))
	}
	for i, ev := range got {
		if ev.Time != float64(i) {
			t.Fatalf("event %d has Time %g: stream not contiguous", i, ev.Time)
		}
	}
	// A stale cursor pointing into the dropped gap resumes at the oldest
	// survivor instead of failing.
	evs, next := r.EventsSince(0)
	if len(evs) != 4 || next != 5 {
		t.Fatalf("stale cursor: %d events, next=%d; want 4, 5", len(evs), next)
	}
	if evs[0].Time != 1 {
		t.Fatalf("oldest survivor Time %g, want 1", evs[0].Time)
	}
	// Cursor at the frontier returns nothing; Total matches.
	if evs, next := r.EventsSince(5); evs != nil || next != 5 {
		t.Fatalf("frontier read returned %d events, next=%d", len(evs), next)
	}
	if r.Total() != 5 {
		t.Fatalf("Total=%d, want 5", r.Total())
	}
	// Nil-safety.
	var nilRec *Recorder
	if evs, next := nilRec.EventsSince(0); evs != nil || next != 0 || nilRec.Total() != 0 {
		t.Fatal("nil recorder EventsSince/Total not zero")
	}
}
