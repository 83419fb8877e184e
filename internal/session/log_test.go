package session

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
)

func TestActionEncodeDecodeRoundTrip(t *testing.T) {
	actions := []*engine.Action{
		engine.NewFilter(
			engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")},
			engine.Predicate{Column: "hour", Op: engine.OpGt, Operand: dataset.I(19)},
		),
		engine.NewGroupCount("dst_ip"),
		engine.NewGroupAgg("protocol", engine.AggAvg, "length"),
	}
	for _, a := range actions {
		back, err := DecodeAction(EncodeAction(a))
		if err != nil {
			t.Fatalf("%s: %v", a, err)
		}
		if !back.Equal(a) {
			t.Errorf("round trip changed action: %s -> %s", a, back)
		}
	}
}

func TestDecodeActionErrors(t *testing.T) {
	if _, err := DecodeAction(LogAction{Type: "warp"}); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := DecodeAction(LogAction{Type: "filter", Predicates: []LogPredicate{{Column: "c", Op: "~~", Kind: "string", Value: "x"}}}); err == nil {
		t.Error("unknown op must fail")
	}
	if _, err := DecodeAction(LogAction{Type: "filter", Predicates: []LogPredicate{{Column: "c", Op: "==", Kind: "blob", Value: "x"}}}); err == nil {
		t.Error("unknown kind must fail")
	}
	if _, err := DecodeAction(LogAction{Type: "group", Agg: "median"}); err == nil {
		t.Error("unknown agg must fail")
	}
}

func TestSessionLogRoundTripWithReplay(t *testing.T) {
	s := buildRunningExample(t)
	s.Analyst = "clarice"
	s.Successful = true
	s.Summary = "found the after-hours channel"

	var buf bytes.Buffer
	if err := WriteLog(&buf, []*Session{s}); err != nil {
		t.Fatal(err)
	}
	lf, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Session) != 1 {
		t.Fatalf("sessions = %d", len(lf.Session))
	}
	back, err := Replay(lf.Session[0], exampleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if back.Steps() != s.Steps() || back.Analyst != "clarice" || !back.Successful {
		t.Error("session metadata lost")
	}
	// The replayed tree must match shape and content.
	for i := 0; i <= s.Steps(); i++ {
		a, b := s.NodeAt(i), back.NodeAt(i)
		if a.Display.NumRows() != b.Display.NumRows() {
			t.Errorf("step %d: rows %d vs %d", i, a.Display.NumRows(), b.Display.NumRows())
		}
		if (a.Parent == nil) != (b.Parent == nil) {
			t.Errorf("step %d parent mismatch", i)
		}
		if a.Parent != nil && a.Parent.Step != b.Parent.Step {
			t.Errorf("step %d parent step %d vs %d", i, a.Parent.Step, b.Parent.Step)
		}
	}
}

func TestReplayErrors(t *testing.T) {
	root := exampleRoot(t)
	// Bad parent index.
	_, err := Replay(LogSession{ID: "x", Steps: []LogStep{{Parent: 5, Action: LogAction{Type: "group", GroupBy: "protocol", Agg: "count"}}}}, root)
	if err == nil {
		t.Error("out-of-range parent must fail")
	}
	// Unknown column fails during execution.
	_, err = Replay(LogSession{ID: "x", Steps: []LogStep{{Parent: 0, Action: LogAction{Type: "group", GroupBy: "ghost", Agg: "count"}}}}, root)
	if err == nil {
		t.Error("bad action must fail replay")
	}
}

func TestSaveLoadLogFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.json")
	s := buildRunningExample(t)
	if err := SaveLog(path, []*Session{s}); err != nil {
		t.Fatal(err)
	}
	lf, err := LoadLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Session) != 1 || len(lf.Session[0].Steps) != 3 {
		t.Error("log content wrong")
	}
	if _, err := LoadLog(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must fail")
	}
}

func TestRepository(t *testing.T) {
	repo := NewRepository()
	tbl := exampleRoot(t).Table
	repo.AddDataset(tbl)
	if repo.RootDisplay("pkts") == nil {
		t.Fatal("root display missing")
	}
	if repo.RootDisplay("nope") != nil {
		t.Error("unknown dataset should be nil")
	}
	s1 := buildRunningExample(t)
	s1.Successful = true
	s2 := buildRunningExample(t)
	s2.ID = "s2"
	repo.Add(s1)
	repo.Add(s2)

	if got := len(repo.Sessions()); got != 2 {
		t.Errorf("sessions = %d", got)
	}
	if got := len(repo.SuccessfulSessions()); got != 1 {
		t.Errorf("successful = %d", got)
	}
	if got := repo.NumActions(); got != 6 {
		t.Errorf("actions = %d, want 6", got)
	}
	st := repo.ComputeStats()
	if st.Sessions != 2 || st.SuccessfulSessions != 1 || st.Actions != 6 || st.SuccessfulActions != 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Datasets != 1 {
		t.Errorf("datasets = %d", st.Datasets)
	}

	states := repo.States(false)
	if len(states) != 6 {
		t.Errorf("states = %d, want 6 (t = 0..2 per session)", len(states))
	}
	succStates := repo.States(true)
	if len(succStates) != 3 {
		t.Errorf("successful states = %d, want 3", len(succStates))
	}
}

func TestRepositoryLoadLogFile(t *testing.T) {
	repo := NewRepository()
	repo.AddDataset(exampleRoot(t).Table)
	s := buildRunningExample(t)
	var buf bytes.Buffer
	if err := WriteLog(&buf, []*Session{s}); err != nil {
		t.Fatal(err)
	}
	lf, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.LoadLogFile(lf); err != nil {
		t.Fatal(err)
	}
	if len(repo.Sessions()) != 1 {
		t.Error("session not loaded")
	}
	// Unknown dataset is an error.
	lf.Session[0].Dataset = "ghost"
	repo2 := NewRepository()
	if err := repo2.LoadLogFile(lf); err == nil {
		t.Error("unknown dataset must fail")
	}
}

// trailingLogs are logs with bytes after the envelope: stray garbage, a
// null followed by a letter, and two concatenated envelopes.
func trailingLogs() []string {
	env := `{"version":1,"sessions":[{"id":"s1","steps":[{"parent":0,"action":{"type":"group","group_by":"proto","agg":"count"}}]}]}`
	return []string{env + "garbage", "nullx", env + "\n" + env}
}

// TestReadLogRefusesTrailingData: ReadLog fails a log with bytes after
// its envelope, and ReadLogLenient reads the envelope and quarantines
// those bytes as one entry naming the line they start on. A null is not
// an envelope to salvage. WriteLog's trailing newline still reads.
func TestReadLogRefusesTrailingData(t *testing.T) {
	wantLine := []int{1, 0, 2}
	for i, in := range trailingLogs() {
		if lf, err := ReadLog(strings.NewReader(in)); err == nil {
			t.Errorf("ReadLog(%q) = %+v, want an error", in, lf)
		}
		lf, quar, err := ReadLogLenient(strings.NewReader(in))
		if wantLine[i] == 0 {
			if err == nil {
				t.Errorf("ReadLogLenient(%q) = %+v, %v; want an error", in, lf, quar)
			}
			continue
		}
		want := []Quarantined{{Index: -1, Line: wantLine[i], Reason: "trailing data after the log envelope"}}
		if err != nil || len(lf.Session) != 1 || !reflect.DeepEqual(quar, want) {
			t.Errorf("ReadLogLenient(%q) = %d sessions, %+v, %v; want 1 session and %+v", in, len(lf.Session), quar, err, want)
		}
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadLog(bytes.NewReader(append(buf.Bytes(), " \t\r\n"...))); err != nil {
		t.Errorf("a written log with trailing whitespace: %v", err)
	}
}
