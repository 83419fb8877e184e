// Package snapshot implements the versioned on-disk format for trained
// predictors and the JSON wire form of n-contexts shared by snapshots and
// the HTTP serving layer (internal/serve).
//
// A context is serialized as the tree of its nodes; each node carries the
// incoming action in the session-log form (session.LogAction, whose value
// rendering round-trips floats and times exactly) and its display as a
// *summary*: row count, aggregation shape, and the per-column TopFreq
// histograms of the display profile. That summary is exactly the state the
// session distance metric reads (see internal/distance), so a decoded
// context compares bit-identically to the one it was encoded from — the
// property behind the snapshot round-trip guarantee.
//
// Displays repeat heavily across contexts (every context of a session
// shares node displays; most contain a dataset's root display), so inside
// a snapshot displays live in a shared pool and nodes carry 1-based Ref
// indices; decoding the pool once per file restores the original pointer
// sharing, keeping the distance memo (internal/distance.Memo) as effective
// as in the training process. Self-contained contexts (HTTP requests, the
// `idarepro train -contexts` export) inline the display per node instead.
package snapshot

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/session"
)

// WireColumn is one column of a display summary: its name plus the
// truncated value-frequency histogram the display ground metric compares.
type WireColumn struct {
	Name    string             `json:"name"`
	TopFreq map[string]float64 `json:"top_freq,omitempty"`
}

// WireDisplay is the distance-relevant summary of a display. Column order
// is preserved: the ground metric iterates columns in declaration order,
// so order is part of a display's identity.
type WireDisplay struct {
	Rows        int          `json:"rows"`
	Aggregated  bool         `json:"aggregated,omitempty"`
	GroupColumn string       `json:"group_column,omitempty"`
	ValueColumn string       `json:"value_column,omitempty"`
	Columns     []WireColumn `json:"columns,omitempty"`
}

// WireNode is one context-tree node. Exactly one of Display (inline,
// self-contained contexts) and Ref (1-based index into the enclosing
// snapshot's display pool) is set when the node has a display.
type WireNode struct {
	Step     int                `json:"step"`
	Action   *session.LogAction `json:"action,omitempty"`
	Display  *WireDisplay       `json:"display,omitempty"`
	Ref      int                `json:"ref,omitempty"`
	Children []*WireNode        `json:"children,omitempty"`
}

// WireContext is the serialized form of a session.Context.
type WireContext struct {
	SessionID string    `json:"session_id"`
	T         int       `json:"t"`
	N         int       `json:"n"`
	Size      int       `json:"size"`
	Root      *WireNode `json:"root,omitempty"`
}

// Pool deduplicates displays by pointer identity during encoding, so the
// decoded snapshot reproduces the training process's display sharing.
type Pool struct {
	displays []*WireDisplay
	index    map[*engine.Display]int
}

// NewPool returns an empty display pool.
func NewPool() *Pool {
	return &Pool{index: make(map[*engine.Display]int)}
}

// Displays returns the pooled displays in first-reference order.
func (p *Pool) Displays() []*WireDisplay { return p.displays }

// ref interns a display and returns its 1-based pool index.
func (p *Pool) ref(d *engine.Display) int {
	if i, ok := p.index[d]; ok {
		return i
	}
	p.displays = append(p.displays, EncodeDisplay(d))
	p.index[d] = len(p.displays)
	return len(p.displays)
}

// EncodeDisplay captures a display's distance-relevant summary.
func EncodeDisplay(d *engine.Display) *WireDisplay {
	w := &WireDisplay{
		Rows:        d.NumRows(),
		Aggregated:  d.Aggregated,
		GroupColumn: d.GroupColumn,
		ValueColumn: d.ValueColumn,
	}
	prof := d.GetProfile()
	w.Columns = make([]WireColumn, len(prof.Columns))
	for i := range prof.Columns {
		wc := WireColumn{Name: prof.Columns[i].Name}
		if top := prof.TopFreq(i); len(top) > 0 {
			wc.TopFreq = make(map[string]float64, len(top))
			for k, v := range top {
				wc.TopFreq[k] = v
			}
		}
		w.Columns[i] = wc
	}
	return w
}

// DecodeDisplay rebuilds a summary display (see engine.NewSummaryDisplay).
func DecodeDisplay(w *WireDisplay) *engine.Display {
	cols := make([]engine.ColumnProfile, len(w.Columns))
	for i, c := range w.Columns {
		cols[i] = engine.ColumnProfile{Name: c.Name, TopFreq: c.TopFreq}
	}
	return engine.NewSummaryDisplay(w.Rows, w.Aggregated, w.GroupColumn, w.ValueColumn, engine.NewProfile(w.Rows, cols))
}

// DecodeDisplays decodes a snapshot's display pool. Each pooled display is
// decoded exactly once, so every Ref to the same index resolves to the
// same *engine.Display — pointer sharing survives the round trip.
func DecodeDisplays(ws []*WireDisplay) []*engine.Display {
	out := make([]*engine.Display, len(ws))
	for i, w := range ws {
		out[i] = DecodeDisplay(w)
	}
	return out
}

// EncodeContext serializes a context. With a non-nil pool, node displays
// are interned and referenced by index (the snapshot form); with a nil
// pool they are inlined per node (the self-contained wire form).
func EncodeContext(c *session.Context, pool *Pool) *WireContext {
	w := &WireContext{SessionID: c.SessionID, T: c.T, N: c.N, Size: c.Size}
	var enc func(n *session.CtxNode) *WireNode
	enc = func(n *session.CtxNode) *WireNode {
		if n == nil {
			return nil
		}
		wn := &WireNode{Step: n.Step}
		if n.Action != nil {
			la := session.EncodeAction(n.Action)
			wn.Action = &la
		}
		if n.Display != nil {
			if pool != nil {
				wn.Ref = pool.ref(n.Display)
			} else {
				wn.Display = EncodeDisplay(n.Display)
			}
		}
		for _, ch := range n.Children {
			wn.Children = append(wn.Children, enc(ch))
		}
		return wn
	}
	w.Root = enc(c.Root)
	return w
}

// DecodeContext rebuilds a context. displays is the decoded pool that Ref
// indices resolve against; it may be nil for fully inline contexts.
func DecodeContext(w *WireContext, displays []*engine.Display) (*session.Context, error) {
	if w == nil {
		return nil, fmt.Errorf("snapshot: decode context: nil context")
	}
	c := &session.Context{SessionID: w.SessionID, T: w.T, N: w.N, Size: w.Size}
	var dec func(n *WireNode) (*session.CtxNode, error)
	dec = func(n *WireNode) (*session.CtxNode, error) {
		if n == nil {
			return nil, nil
		}
		cn := &session.CtxNode{Step: n.Step}
		if n.Action != nil {
			a, err := session.DecodeAction(*n.Action)
			if err != nil {
				return nil, fmt.Errorf("snapshot: decode context %s@%d node %d: %w", w.SessionID, w.T, n.Step, err)
			}
			cn.Action = a
		}
		switch {
		case n.Ref != 0:
			if n.Ref < 0 || n.Ref > len(displays) {
				return nil, fmt.Errorf("snapshot: decode context %s@%d node %d: display ref %d out of range [1,%d]",
					w.SessionID, w.T, n.Step, n.Ref, len(displays))
			}
			cn.Display = displays[n.Ref-1]
		case n.Display != nil:
			cn.Display = DecodeDisplay(n.Display)
		}
		for _, ch := range n.Children {
			dc, err := dec(ch)
			if err != nil {
				return nil, err
			}
			cn.Children = append(cn.Children, dc)
		}
		return cn, nil
	}
	root, err := dec(w.Root)
	if err != nil {
		return nil, err
	}
	c.Root = root
	return c, nil
}
