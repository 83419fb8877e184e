package session

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/atomicio"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// The log format mirrors the REACT-IDA benchmark's design: it records each
// session's action sequence (with the parent display each action was
// executed from) so that every recorded session can be fully reconstructed
// by re-execution against the original datasets, rather than storing
// materialized displays.

// LogFile is the on-disk JSON envelope of a session repository.
type LogFile struct {
	// Version guards future format evolution.
	Version int          `json:"version"`
	Session []LogSession `json:"sessions"`
}

// LogSession serializes one session.
type LogSession struct {
	ID         string    `json:"id"`
	Analyst    string    `json:"analyst"`
	Dataset    string    `json:"dataset"`
	Successful bool      `json:"successful"`
	Summary    string    `json:"summary,omitempty"`
	Steps      []LogStep `json:"steps"`
}

// LogStep serializes one analysis step: which display node (by step index)
// the action was executed from, and the action itself.
type LogStep struct {
	Parent int       `json:"parent"`
	Action LogAction `json:"action"`
}

// LogAction serializes an engine.Action.
type LogAction struct {
	Type       string         `json:"type"`
	Predicates []LogPredicate `json:"predicates,omitempty"`
	GroupBy    string         `json:"group_by,omitempty"`
	Agg        string         `json:"agg,omitempty"`
	AggColumn  string         `json:"agg_column,omitempty"`
	SortColumn string         `json:"sort_column,omitempty"`
	K          int            `json:"k,omitempty"`
	Ascending  bool           `json:"ascending,omitempty"`
}

// LogPredicate serializes an engine.Predicate.
type LogPredicate struct {
	Column string `json:"column"`
	Op     string `json:"op"`
	Kind   string `json:"kind"`
	Value  string `json:"value"`
}

// EncodeAction converts an action to its log form.
func EncodeAction(a *engine.Action) LogAction {
	la := LogAction{Type: a.Type.String()}
	switch a.Type {
	case engine.ActionFilter:
		for _, p := range a.Predicates {
			la.Predicates = append(la.Predicates, LogPredicate{
				Column: p.Column,
				Op:     p.Op.String(),
				Kind:   p.Operand.Kind.String(),
				Value:  p.Operand.String(),
			})
		}
	case engine.ActionGroup:
		la.GroupBy = a.GroupBy
		la.Agg = a.Agg.String()
		la.AggColumn = a.AggColumn
	case engine.ActionTopK:
		la.SortColumn = a.SortColumn
		la.K = a.K
		la.Ascending = a.Ascending
	}
	return la
}

// DecodeAction converts a log action back to an engine.Action.
func DecodeAction(la LogAction) (*engine.Action, error) {
	t, err := engine.ParseActionType(la.Type)
	if err != nil {
		return nil, err
	}
	a := &engine.Action{Type: t}
	switch t {
	case engine.ActionFilter:
		for _, lp := range la.Predicates {
			op, err := engine.ParseCompareOp(lp.Op)
			if err != nil {
				return nil, err
			}
			kind, err := dataset.ParseKind(lp.Kind)
			if err != nil {
				return nil, err
			}
			v, err := dataset.ParseValue(kind, lp.Value)
			if err != nil {
				return nil, err
			}
			a.Predicates = append(a.Predicates, engine.Predicate{Column: lp.Column, Op: op, Operand: v})
		}
	case engine.ActionGroup:
		agg, err := engine.ParseAggFunc(la.Agg)
		if err != nil {
			return nil, err
		}
		a.GroupBy = la.GroupBy
		a.Agg = agg
		a.AggColumn = la.AggColumn
	case engine.ActionTopK:
		a.SortColumn = la.SortColumn
		a.K = la.K
		a.Ascending = la.Ascending
	}
	return a, nil
}

// Encode converts a session to its log form.
func Encode(s *Session) LogSession {
	ls := LogSession{
		ID:         s.ID,
		Analyst:    s.Analyst,
		Dataset:    s.Dataset,
		Successful: s.Successful,
		Summary:    s.Summary,
	}
	for _, n := range s.byStep[1:] {
		ls.Steps = append(ls.Steps, LogStep{Parent: n.Parent.Step, Action: EncodeAction(n.Action)})
	}
	return ls
}

// Replay reconstructs a session from its log form by re-executing every
// action against the given root display.
func Replay(ls LogSession, root *engine.Display) (*Session, error) {
	s := New(ls.ID, ls.Dataset, root)
	s.Analyst = ls.Analyst
	s.Successful = ls.Successful
	s.Summary = ls.Summary
	for i, step := range ls.Steps {
		a, err := DecodeAction(step.Action)
		if err != nil {
			return nil, fmt.Errorf("session %s step %d: %w", ls.ID, i+1, err)
		}
		parent := s.NodeAt(step.Parent)
		if parent == nil {
			return nil, fmt.Errorf("session %s step %d: parent step %d out of range", ls.ID, i+1, step.Parent)
		}
		if _, err := s.ApplyAt(parent, a); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WriteLog serializes sessions to JSON.
func WriteLog(w io.Writer, sessions []*Session) error {
	lf := LogFile{Version: 1}
	for _, s := range sessions {
		lf.Session = append(lf.Session, Encode(s))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(lf); err != nil {
		return fmt.Errorf("session: write log: %w", err)
	}
	return nil
}

// ReadLog parses a JSON log. Sessions are returned in log order, not yet
// replayed (datasets may live elsewhere); see Repository.Load. Only
// whitespace may follow the envelope: a second envelope or stray bytes
// fail the read instead of being dropped.
func ReadLog(r io.Reader) (*LogFile, error) {
	var lf LogFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&lf); err != nil {
		return nil, fmt.Errorf("session: read log: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("session: read log: %s", trailingData)
	}
	return &lf, nil
}

// trailingData is the reason both log readers give for bytes after the
// envelope.
const trailingData = "trailing data after the log envelope"

// SaveLog writes sessions to a file path. The write is atomic (temp file +
// fsync + rename, see internal/atomicio): a crash or write error mid-save
// leaves any pre-existing log untouched instead of a truncated JSON file,
// and the close error is no longer masked by a doubled Close.
func SaveLog(path string, sessions []*Session) error {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteLog(w, sessions)
	})
	if err != nil {
		return fmt.Errorf("session: save log: %w", err)
	}
	return nil
}

// LoadLog reads a log file from a path.
func LoadLog(path string) (*LogFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("session: load log: %w", err)
	}
	defer f.Close()
	return ReadLog(f)
}
