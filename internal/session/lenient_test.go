package session

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// goodLog serializes n copies of the running example session.
func goodLog(t *testing.T, n int) string {
	t.Helper()
	var sessions []*Session
	for i := 0; i < n; i++ {
		s := buildRunningExample(t)
		s.ID = "s" + string(rune('a'+i))
		s.Successful = true
		sessions = append(sessions, s)
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, sessions); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestLenientMatchesStrictOnCleanLog(t *testing.T) {
	log := goodLog(t, 3)
	strict, err := ReadLog(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	lenient, quar, err := ReadLogLenient(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(quar) != 0 {
		t.Fatalf("clean log quarantined %v", quar)
	}
	if lenient.Version != strict.Version || len(lenient.Session) != len(strict.Session) {
		t.Fatalf("lenient (%d sessions, v%d) != strict (%d sessions, v%d)",
			len(lenient.Session), lenient.Version, len(strict.Session), strict.Version)
	}
	a, _ := json.Marshal(strict)
	b, _ := json.Marshal(lenient)
	if !bytes.Equal(a, b) {
		t.Fatal("lenient parse of a clean log diverged from the strict parse")
	}
}

// corruptMiddleSession rewrites the middle record of a 3-session log
// via a mutation of its decoded form, returning the serialized file.
func corruptMiddleSession(t *testing.T, mutate func(*LogSession)) string {
	t.Helper()
	var lf LogFile
	if err := json.Unmarshal([]byte(goodLog(t, 3)), &lf); err != nil {
		t.Fatal(err)
	}
	mutate(&lf.Session[1])
	blob, err := json.MarshalIndent(lf, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func TestLenientQuarantinesInvalidAction(t *testing.T) {
	log := corruptMiddleSession(t, func(ls *LogSession) {
		ls.Steps[0].Action.Type = "warp-drive"
	})
	before := obs.C("session.quarantined").Load()

	lf, quar, err := ReadLogLenient(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Session) != 2 {
		t.Fatalf("kept %d sessions, want 2", len(lf.Session))
	}
	if len(quar) != 1 {
		t.Fatalf("quarantined %d records, want 1: %v", len(quar), quar)
	}
	q := quar[0]
	if q.Session != "sb" || q.Index != 1 || q.Line < 1 || !strings.Contains(q.Reason, "warp-drive") {
		t.Fatalf("quarantine record = %+v, want session sb at index 1 with the bad action named", q)
	}
	if lf.Session[0].ID != "sa" || lf.Session[1].ID != "sc" {
		t.Fatalf("surviving sessions = %s, %s; want sa, sc", lf.Session[0].ID, lf.Session[1].ID)
	}
	if got := obs.C("session.quarantined").Load() - before; got != 1 {
		t.Fatalf("session.quarantined counter moved by %d, want 1", got)
	}

	// The strict reader refuses nothing at JSON level here (the type is
	// a string); strictness is enforced at replay. But a type-level
	// corruption must fail strict decode end to end:
	if _, err := ReadLog(strings.NewReader(strings.Replace(log, `"parent": 0`, `"parent": "zero"`, 1))); err == nil {
		t.Fatal("strict ReadLog accepted a type-corrupted log")
	}
}

func TestLenientQuarantinesTypeMismatch(t *testing.T) {
	log := corruptMiddleSession(t, func(ls *LogSession) { ls.ID = "sb" })
	log = strings.Replace(log, `"id": "sb"`, `"id": 42`, 1)
	lf, quar, err := ReadLogLenient(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Session) != 2 || len(quar) != 1 {
		t.Fatalf("kept %d, quarantined %d; want 2/1 (%v)", len(lf.Session), len(quar), quar)
	}
	if !strings.Contains(quar[0].Reason, "decode") {
		t.Fatalf("reason = %q, want a decode error", quar[0].Reason)
	}
}

func TestLenientQuarantinesParentOutOfRange(t *testing.T) {
	log := corruptMiddleSession(t, func(ls *LogSession) { ls.Steps[0].Parent = 99 })
	lf, quar, err := ReadLogLenient(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Session) != 2 || len(quar) != 1 {
		t.Fatalf("kept %d, quarantined %d; want 2/1", len(lf.Session), len(quar))
	}
	if !strings.Contains(quar[0].Reason, "out of range") {
		t.Fatalf("reason = %q, want parent out of range", quar[0].Reason)
	}
}

func TestLenientSalvagesMalformedJSONElement(t *testing.T) {
	// Damage the middle record's JSON itself (an unquoted token) while
	// keeping its braces balanced, so only shape-scanning can step over
	// it.
	log := goodLog(t, 3)
	damaged := strings.Replace(log, `"id": "sb"`, `"id": oops`, 1)
	if damaged == log {
		t.Fatal("corruption did not apply")
	}
	if _, err := ReadLog(strings.NewReader(damaged)); err == nil {
		t.Fatal("strict ReadLog accepted malformed JSON")
	}
	lf, quar, err := ReadLogLenient(strings.NewReader(damaged))
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Session) != 2 {
		t.Fatalf("kept %d sessions, want the 2 intact ones", len(lf.Session))
	}
	if len(quar) != 1 || quar[0].Index != 1 {
		t.Fatalf("quarantine = %v, want exactly the middle record", quar)
	}
	if lf.Session[0].ID != "sa" || lf.Session[1].ID != "sc" {
		t.Fatalf("surviving sessions = %s, %s; want sa, sc", lf.Session[0].ID, lf.Session[1].ID)
	}
}

func TestLenientTruncatedTail(t *testing.T) {
	log := goodLog(t, 3)
	// Cut mid-way through the last record.
	cut := strings.LastIndex(log, `"steps"`)
	if cut < 0 {
		t.Fatal("fixture drifted")
	}
	lf, quar, err := ReadLogLenient(strings.NewReader(log[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	if len(lf.Session) != 2 {
		t.Fatalf("kept %d sessions from a truncated log, want 2", len(lf.Session))
	}
	if len(quar) != 1 || !strings.Contains(quar[0].Reason, "truncated") {
		t.Fatalf("quarantine = %v, want one truncated-record entry", quar)
	}
}

// TestLenientSalvageReadsKeysAsReadLog covers the salvage scan of a log
// with invalid records: the sessions key matches without regard to case,
// a later sessions value replaces the earlier one, and each quarantined
// record reports the line it starts on.
func TestLenientSalvageReadsKeysAsReadLog(t *testing.T) {
	good := func(id string) string {
		return `{"id":"` + id + `","steps":[{"parent":0,"action":{"type":"group","group_by":"proto","agg":"count"}}]}`
	}
	bad := `{"id":"bad","steps":[{"parent":0,"action":{"type":"nonsense"}}]}`
	log := "{\"version\":1,\n\"sessions\":[" + good("old") + "],\n\"SESSIONS\":[\n" +
		good("a") + ",\n" + bad + ",\n" + good("b") + ",\n" + bad + "]}"
	lf, quar, err := ReadLogLenient(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if lf.Version != 1 || len(lf.Session) != 2 || lf.Session[0].ID != "a" || lf.Session[1].ID != "b" {
		t.Fatalf("read version %d, sessions %+v; want version 1, sessions a and b", lf.Version, lf.Session)
	}
	if len(quar) != 2 || quar[0].Index != 1 || quar[0].Line != 5 || quar[1].Index != 3 || quar[1].Line != 7 {
		t.Fatalf("quarantine = %v, want indices 1 and 3 on lines 5 and 7", quar)
	}
}

func TestLenientRejectsNonObject(t *testing.T) {
	if _, _, err := ReadLogLenient(strings.NewReader("not json at all")); err == nil {
		t.Fatal("garbage input did not error")
	}
	if _, _, err := ReadLogLenient(strings.NewReader("[1,2,3]")); err == nil {
		t.Fatal("non-object input did not error")
	}
}

func TestLoadLogFileLenientQuarantinesReplayFailures(t *testing.T) {
	var lf LogFile
	if err := json.Unmarshal([]byte(goodLog(t, 3)), &lf); err != nil {
		t.Fatal(err)
	}
	// Middle session references a dataset the repository lacks; last
	// session filters a column that does not exist (replay failure).
	lf.Session[1].Dataset = "ghost"
	lf.Session[2].Steps[0].Action = LogAction{Type: "filter", Predicates: []LogPredicate{
		{Column: "no_such_column", Op: "==", Kind: "string", Value: "x"},
	}}

	repo := NewRepository()
	repo.AddDataset(exampleRoot(t).Table)
	quar := repo.LoadLogFileLenient(&lf)
	if len(repo.Sessions()) != 1 || repo.Sessions()[0].ID != "sa" {
		t.Fatalf("loaded %d sessions, want just sa", len(repo.Sessions()))
	}
	if len(quar) != 2 {
		t.Fatalf("quarantined %d, want 2: %v", len(quar), quar)
	}
	if !strings.Contains(quar[0].Reason, "ghost") || !strings.Contains(quar[1].Reason, "replay") {
		t.Fatalf("reasons = %q, %q; want unknown dataset then replay failure", quar[0].Reason, quar[1].Reason)
	}
	// The strict loader fails the whole file on the same input.
	strictRepo := NewRepository()
	strictRepo.AddDataset(exampleRoot(t).Table)
	if err := strictRepo.LoadLogFile(&lf); err == nil {
		t.Fatal("strict LoadLogFile accepted a log with a missing dataset")
	}
}

func TestQuarantinedString(t *testing.T) {
	q := Quarantined{Session: "s1", Index: 3, Line: 40, Reason: "decode: boom"}
	if s := q.String(); !strings.Contains(s, "s1") || !strings.Contains(s, "40") {
		t.Fatalf("String() = %q", s)
	}
	anon := Quarantined{Index: 0, Line: 2, Reason: "truncated"}
	if s := anon.String(); !strings.Contains(s, "?") {
		t.Fatalf("String() without id = %q", s)
	}
}
