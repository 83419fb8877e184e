package session

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadLog feeds arbitrary bytes to the JSON log reader and, when the
// envelope decodes, pushes every recorded action through DecodeAction.
// Neither step may panic: a corrupted sessions.json must surface as an
// error (or a skipped action), never a crash of the loading pipeline.
//
// Run the full fuzzer with:
//
//	go test -fuzz='^FuzzReadLog$' -fuzztime=10s ./internal/session
func FuzzReadLog(f *testing.F) {
	seeds := []string{
		`{"version":1,"sessions":[]}`,
		`{"version":1,"sessions":[{"id":"s1","analyst":"a1","dataset":"pkts","successful":true,"steps":[{"parent":0,"action":{"type":"filter","predicates":[{"column":"proto","op":"eq","kind":"string","value":"HTTP"}]}}]}]}`,
		`{"version":1,"sessions":[{"id":"s2","steps":[{"parent":0,"action":{"type":"group","group_by":"proto","agg":"count"}}]}]}`,
		`{"version":1,"sessions":[{"id":"s3","steps":[{"parent":0,"action":{"type":"top-k","sort_column":"len","k":5}}]}]}`,
		`{"version":99,"sessions":[{"steps":[{"parent":-7,"action":{"type":"nonsense"}}]}]}`,
		`{`,
		`null`,
		`[]`,
		`{"sessions":[{"steps":[{"action":{"type":"filter","predicates":[{"kind":"float","value":"not-a-number"}]}}]}]}`,
	}
	seeds = append(seeds, trailingLogs()...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lf, err := ReadLog(strings.NewReader(string(data)))
		if err != nil {
			return
		}
		for _, ls := range lf.Session {
			for _, step := range ls.Steps {
				a, err := DecodeAction(step.Action)
				if err != nil {
					continue
				}
				// A decoded action must re-encode and decode to the same
				// log form: Encode/Decode cannot drift.
				again, err := DecodeAction(EncodeAction(a))
				if err != nil {
					t.Fatalf("re-decode of accepted action %+v failed: %v", step.Action, err)
				}
				if again.Type != a.Type {
					t.Fatalf("action type changed across round trip: %v -> %v", a.Type, again.Type)
				}
			}
		}
	})
}

// FuzzReadLogLenient feeds arbitrary bytes to the lenient log reader. No
// input may panic it, and on a log that ReadLog accepts and whose every
// record passes the lenient reader's checks (each action decodes, each
// parent is in range) it must return what ReadLog returns and quarantine
// nothing.
//
// Run the full fuzzer with:
//
//	go test -fuzz=FuzzReadLogLenient -fuzztime=10s ./internal/session
func FuzzReadLogLenient(f *testing.F) {
	rec := `{"id":"s1","analyst":"a1","dataset":"pkts","successful":true,"steps":[{"parent":0,"action":{"type":"group","group_by":"proto","agg":"count"}}]}`
	bad := `{"id":"s2","steps":[{"parent":0,"action":{"type":"nonsense"}}]}`
	seeds := []string{
		`{"version":1,"sessions":[` + rec + `]}`,
		`{"version":1,"Sessions":[` + rec + `]}`,
		`{"version":1,"SESSIONS":[` + rec + `]}`,
		`{"version":1,"ſessions":[` + rec + `]}`,
		`{"version":1,"sessions":[` + rec + `],"sessions":[` + rec + `]}`,
		`{"version":1,"sessions":[` + rec + `],"sessions":null}`,
		`{"version":1,"sessions":[` + rec + `,` + bad + `]}`,
		`{"version":1,"sessions":[` + rec + `,{"id": oops}]}`,
		`{"version":1,"sessions":[` + rec,
		`null`,
		`[]`,
	}
	seeds = append(seeds, trailingLogs()...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lf, quar, err := ReadLogLenient(bytes.NewReader(data))
		strict, serr := ReadLog(bytes.NewReader(data))
		if serr != nil || !validLog(strict) {
			return
		}
		if err != nil || len(quar) != 0 {
			t.Fatalf("log ReadLog accepts: lenient err=%v, quarantined %v", err, quar)
		}
		if !reflect.DeepEqual(lf, strict) {
			t.Fatalf("lenient read %+v, ReadLog read %+v", lf, strict)
		}
	})
}

// FuzzDecodeAction drives DecodeAction directly over the full field
// product (type x op x kind x value x agg), bypassing JSON: every
// combination must either decode cleanly or return an error.
func FuzzDecodeAction(f *testing.F) {
	f.Add("filter", "proto", "eq", "string", "HTTP", "", "", 0)
	f.Add("filter", "len", "gt", "int", "100", "", "", 0)
	f.Add("filter", "ts", "le", "time", "2018-03-01T09:00:00Z", "", "", 0)
	f.Add("group", "", "", "", "", "proto", "count", 0)
	f.Add("group", "", "", "", "", "len", "avg", 0)
	f.Add("top-k", "", "", "", "", "", "", 5)
	f.Add("", "", "", "", "", "", "", -1)
	f.Add("filter", "", "nope", "float", "NaN", "", "", 0)
	f.Fuzz(func(t *testing.T, typ, col, op, kind, value, groupBy, agg string, k int) {
		la := LogAction{
			Type:       typ,
			GroupBy:    groupBy,
			Agg:        agg,
			AggColumn:  col,
			SortColumn: col,
			K:          k,
		}
		if op != "" || kind != "" || value != "" || col != "" {
			la.Predicates = []LogPredicate{{Column: col, Op: op, Kind: kind, Value: value}}
		}
		a, err := DecodeAction(la)
		if err != nil {
			return
		}
		if _, err := DecodeAction(EncodeAction(a)); err != nil {
			t.Fatalf("re-decode of accepted action %+v failed: %v", la, err)
		}
	})
}
