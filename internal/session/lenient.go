package session

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

// Lenient log ingestion: the restart-survivability rung for the data
// path (DESIGN.md §9). A session log that survived a crash, a partial
// upload, or a buggy producer often carries a handful of undecodable
// records inside an otherwise healthy file. The strict reader (ReadLog)
// fails the whole file — correct for canonical logs the simulator
// wrote, hostile to operations. The lenient reader quarantines exactly
// the broken sessions — reporting each one's array index, input line
// and reason — and ingests the rest, so one poisoned record costs one
// session, not the pipeline. Strictness stays the default: leniency is
// an explicit opt-in (the CLI's -lenient flag).

var mQuarantined = obs.C("session.quarantined")

// Quarantined describes one session record the lenient reader skipped.
type Quarantined struct {
	// Session is the record's id when it could be extracted, else "".
	Session string
	// Index is the record's position in the log's sessions array.
	Index int
	// Line is the 1-based input line the record starts on.
	Line int
	// Reason says why the record was skipped.
	Reason string
}

func (q Quarantined) String() string {
	id := q.Session
	if id == "" {
		id = "?"
	}
	return fmt.Sprintf("session %s (index %d, line %d): %s", id, q.Index, q.Line, q.Reason)
}

// ReadLogLenient parses a JSON log like ReadLog but skips undecodable
// session records instead of failing the file: malformed JSON elements
// (salvaged by a brace-and-string-aware scan), records that do not
// decode strictly, records whose actions or parent references are
// invalid, a truncated tail, and bytes after the envelope (Index -1) all
// become Quarantined entries. A log
// that ReadLog accepts and whose every record is valid reads exactly as
// ReadLog reads it. An input that is not a JSON object at all still
// errors — there is nothing to salvage.
func ReadLogLenient(r io.Reader) (*LogFile, []Quarantined, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, fmt.Errorf("session: read log: %w", err)
	}
	// The strict decode is the reference for a healthy log, including
	// how encoding/json folds key case and decodes a repeated key over
	// the earlier value; the scan below salvages the rest.
	if lf, err := ReadLog(bytes.NewReader(data)); err == nil && validLog(lf) {
		return lf, nil, nil
	}
	lf := &LogFile{}
	var quar []Quarantined
	defer func() {
		if len(quar) > 0 {
			mQuarantined.Add(uint64(len(quar)))
		}
	}()

	ln := &lineIndex{data: data, line: 1}
	i := skipWS(data, 0)
	if i >= len(data) || data[i] != '{' {
		return nil, nil, fmt.Errorf("session: read log: input is not a JSON object")
	}
	i++
	needComma := false
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			quar = append(quar, Quarantined{Index: -1, Line: ln.at(len(data)), Reason: "truncated log envelope"})
			return lf, quar, nil
		}
		if data[i] == '}' {
			if j := skipWS(data, i+1); j < len(data) {
				quar = append(quar, Quarantined{Index: -1, Line: ln.at(j), Reason: trailingData})
			}
			return lf, quar, nil
		}
		if needComma {
			if data[i] != ',' {
				return nil, nil, fmt.Errorf("session: read log: malformed envelope at line %d", ln.at(i))
			}
			if i = skipWS(data, i+1); i >= len(data) {
				quar = append(quar, Quarantined{Index: -1, Line: ln.at(i), Reason: "truncated log envelope"})
				return lf, quar, nil
			}
		}
		needComma = true
		if data[i] != '"' {
			return nil, nil, fmt.Errorf("session: read log: malformed envelope at line %d", ln.at(i))
		}
		rawKey, end, err := scanValue(data, i)
		if err != nil {
			quar = append(quar, Quarantined{Index: -1, Line: ln.at(i), Reason: "truncated log envelope"})
			return lf, quar, nil
		}
		var key string
		if json.Unmarshal(rawKey, &key) != nil {
			return nil, nil, fmt.Errorf("session: read log: malformed envelope key at line %d", ln.at(i))
		}
		i = skipWS(data, end)
		if i >= len(data) || data[i] != ':' {
			quar = append(quar, Quarantined{Index: -1, Line: ln.at(i), Reason: "truncated log envelope"})
			return lf, quar, nil
		}
		i = skipWS(data, i+1)
		// encoding/json matches keys without regard to case, and a
		// later value of a key replaces the earlier one.
		sessions := strings.EqualFold(key, "sessions")
		if sessions {
			lf.Session = nil
		}
		if sessions && i < len(data) && data[i] == '[' {
			var done bool
			i, done = lenientSessions(data, i, ln, lf, &quar)
			if done {
				return lf, quar, nil
			}
			continue
		}
		raw, end, err := scanValue(data, i)
		if err != nil {
			quar = append(quar, Quarantined{Index: -1, Line: ln.at(i), Reason: "truncated log envelope"})
			return lf, quar, nil
		}
		if strings.EqualFold(key, "version") {
			// Advisory: an unreadable version stays 0.
			_ = json.Unmarshal(raw, &lf.Version)
		}
		i = end
	}
}

// lenientSessions walks the sessions array starting at the '[' in
// data[i], quarantining broken elements. It returns the offset after
// the closing ']' and done=true when the input ended inside the array
// (the truncated tail already quarantined).
func lenientSessions(data []byte, i int, ln *lineIndex, lf *LogFile, quar *[]Quarantined) (int, bool) {
	i++ // consume '['
	idx := 0
	first := true
	for {
		i = skipWS(data, i)
		if i >= len(data) {
			*quar = append(*quar, Quarantined{Index: idx, Line: ln.at(len(data)), Reason: "truncated sessions array"})
			return i, true
		}
		if data[i] == ']' {
			return i + 1, false
		}
		if !first {
			if data[i] != ',' {
				*quar = append(*quar, Quarantined{Index: idx, Line: ln.at(i), Reason: "malformed sessions array: expected ',' or ']'"})
				return i, true
			}
			i = skipWS(data, i+1)
			if i < len(data) && data[i] == ']' { // tolerate a trailing comma
				return i + 1, false
			}
		}
		first = false
		start := i
		raw, end, err := scanValue(data, i)
		if err != nil {
			*quar = append(*quar, Quarantined{Index: idx, Line: ln.at(start), Reason: "truncated session record"})
			return end, true
		}
		ls, reason := decodeSessionStrict(raw)
		if reason != "" {
			*quar = append(*quar, Quarantined{Session: probeID(raw), Index: idx, Line: ln.at(start), Reason: reason})
		} else {
			lf.Session = append(lf.Session, ls)
		}
		idx++
		i = end
	}
}

// decodeSessionStrict unmarshals and validates one session record,
// returning a non-empty reason when it must be quarantined. Validation
// goes beyond JSON shape: every action must decode (known type, parsable
// operands) and every step's parent must reference an already-built
// node, so a record that passes here replays without structural errors.
func decodeSessionStrict(raw []byte) (LogSession, string) {
	var ls LogSession
	if err := json.Unmarshal(raw, &ls); err != nil {
		return LogSession{}, "decode: " + err.Error()
	}
	if reason := checkSession(ls); reason != "" {
		return LogSession{}, reason
	}
	return ls, ""
}

// checkSession is decodeSessionStrict's validation of a decoded record:
// "" when it replays without structural errors, else the reason.
func checkSession(ls LogSession) string {
	for j, step := range ls.Steps {
		if _, err := DecodeAction(step.Action); err != nil {
			return fmt.Sprintf("step %d: %v", j+1, err)
		}
		if step.Parent < 0 || step.Parent > j {
			return fmt.Sprintf("step %d: parent step %d out of range", j+1, step.Parent)
		}
	}
	return ""
}

// validLog reports whether every record of lf passes checkSession.
func validLog(lf *LogFile) bool {
	for _, ls := range lf.Session {
		if checkSession(ls) != "" {
			return false
		}
	}
	return true
}

// probeID best-effort-extracts the record's id for the quarantine
// report; malformed records without a readable id yield "".
func probeID(raw []byte) string {
	var probe struct {
		ID string `json:"id"`
	}
	_ = json.Unmarshal(raw, &probe)
	return probe.ID
}

// LoadLogLenient reads a log file from a path leniently.
func LoadLogLenient(path string) (*LogFile, []Quarantined, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("session: load log: %w", err)
	}
	defer f.Close()
	return ReadLogLenient(f)
}

// LoadLogFileLenient replays a parsed log file like LoadLogFile but
// quarantines sessions that reference missing datasets or fail replay
// (an action rejected by the live engine) instead of aborting the load.
// Quarantine indices are positions in lf.Session.
func (r *Repository) LoadLogFileLenient(lf *LogFile) []Quarantined {
	var quar []Quarantined
	for i, ls := range lf.Session {
		root, ok := r.roots[ls.Dataset]
		if !ok {
			quar = append(quar, Quarantined{Session: ls.ID, Index: i,
				Reason: fmt.Sprintf("unknown dataset %q", ls.Dataset)})
			continue
		}
		s, err := Replay(ls, root)
		if err != nil {
			quar = append(quar, Quarantined{Session: ls.ID, Index: i, Reason: "replay: " + err.Error()})
			continue
		}
		r.Add(s)
	}
	if len(quar) > 0 {
		mQuarantined.Add(uint64(len(quar)))
	}
	return quar
}

// skipWS advances past JSON whitespace.
func skipWS(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// lineIndex maps offsets to 1-based line numbers. The scan asks for
// offsets in non-decreasing order, so each call counts only the newlines
// since the previous one and a whole log costs one pass.
type lineIndex struct {
	data []byte
	off  int // offset of the last query
	line int // line holding off
}

func (l *lineIndex) at(i int) int {
	if i > len(l.data) {
		i = len(l.data)
	}
	l.line += bytes.Count(l.data[l.off:i], []byte{'\n'})
	l.off = i
	return l.line
}

// scanValue scans one JSON value starting at data[i] (no leading
// whitespace), returning its raw bytes and the offset just past it. It
// is shape-only — brace/bracket depth with string awareness — so it can
// step over a malformed-but-balanced element the real decoder rejects;
// err is non-nil only when the input ends before the value closes.
func scanValue(data []byte, i int) ([]byte, int, error) {
	if i >= len(data) {
		return nil, i, fmt.Errorf("truncated")
	}
	start := i
	switch data[i] {
	case '"':
		end, err := scanString(data, i)
		if err != nil {
			return nil, len(data), err
		}
		return data[start:end], end, nil
	case '{', '[':
		depth := 0
		for i < len(data) {
			switch data[i] {
			case '"':
				end, err := scanString(data, i)
				if err != nil {
					return nil, len(data), err
				}
				i = end
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return data[start : i+1], i + 1, nil
				}
			}
			i++
		}
		return nil, len(data), fmt.Errorf("truncated")
	default:
		// Literal: number, true, false, null — runs to a delimiter.
		for i < len(data) {
			switch data[i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				return data[start:i], i, nil
			}
			i++
		}
		return data[start:], len(data), nil
	}
}

// scanString scans a JSON string starting at the opening quote,
// returning the offset just past the closing quote.
func scanString(data []byte, i int) (int, error) {
	i++ // opening quote
	for i < len(data) {
		switch data[i] {
		case '\\':
			i += 2
		case '"':
			return i + 1, nil
		default:
			i++
		}
	}
	return len(data), fmt.Errorf("unterminated string")
}
