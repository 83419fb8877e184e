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
// sharing, so a loaded model holds one prepared copy of each histogram,
// as the training process did. Self-contained contexts (HTTP requests,
// the `idarepro train -contexts` export) inline the display per node
// instead.
//
// Decoding refuses a column histogram of more than engine.TopFreqLimit+1
// keys: no encoder output carries more, and the display distance's cost
// grows with the keys it merges. CheckContext caps a context's node
// count the same way: an n-context covers at most n elements.
package snapshot

import (
	"errors"
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

// maxTopFreqKeys is the most keys a decoded column histogram may carry:
// engine.Profile.TopFreq keeps engine.TopFreqLimit values plus the
// folded-tail bucket, so every encoder output fits.
const maxTopFreqKeys = engine.TopFreqLimit + 1

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
		if top := prof.TopFreq(i); len(top.Keys) > 0 {
			wc.TopFreq = make(map[string]float64, len(top.Keys))
			for j, k := range top.Keys {
				wc.TopFreq[k] = top.Weights[j]
			}
		}
		w.Columns[i] = wc
	}
	return w
}

// DecodeDisplay rebuilds a summary display (see engine.NewSummaryDisplay),
// refusing a column histogram of more than maxTopFreqKeys keys.
func DecodeDisplay(w *WireDisplay) (*engine.Display, error) {
	if err := checkDisplay(w); err != nil {
		return nil, err
	}
	var s pairScratch
	return s.decodeDisplay(w), nil
}

// checkDisplay refuses a wire display DecodeDisplay cannot or should not
// decode: a null one, or one with an oversized column histogram.
func checkDisplay(w *WireDisplay) error {
	if w == nil {
		return fmt.Errorf("snapshot: decode display: null display")
	}
	for _, c := range w.Columns {
		if len(c.TopFreq) > maxTopFreqKeys {
			return fmt.Errorf("snapshot: decode display: column %q histogram has %d keys, more than %d",
				c.Name, len(c.TopFreq), maxTopFreqKeys)
		}
	}
	return nil
}

// pairScratch lays out one display's histograms for engine.NewProfile:
// their key/weight pairs column after column, counts[i] of them for
// column i. Its buffers are reused from display to display.
type pairScratch struct {
	pairs  []engine.KeyWeight
	counts []int
	tops   [][]engine.KeyWeight
}

func (s *pairScratch) reset() { s.pairs, s.counts = s.pairs[:0], s.counts[:0] }

// profile builds the summary profile of cols from the laid-out pairs.
func (s *pairScratch) profile(rows int, cols []engine.ColumnProfile) *engine.Profile {
	s.tops = s.tops[:0]
	at := 0
	for _, c := range s.counts {
		s.tops = append(s.tops, s.pairs[at:at+c])
		at += c
	}
	return engine.NewProfile(rows, cols, s.tops)
}

func (s *pairScratch) decodeDisplay(w *WireDisplay) *engine.Display {
	s.reset()
	cols := make([]engine.ColumnProfile, len(w.Columns))
	for i, c := range w.Columns {
		cols[i] = engine.ColumnProfile{Name: c.Name}
		for k, v := range c.TopFreq {
			s.pairs = append(s.pairs, engine.KeyWeight{Key: k, Weight: v})
		}
		s.counts = append(s.counts, len(c.TopFreq))
	}
	return engine.NewSummaryDisplay(w.Rows, w.Aggregated, w.GroupColumn, w.ValueColumn, s.profile(w.Rows, cols))
}

// DecodeDisplays decodes a snapshot's display pool. Each pooled display is
// decoded exactly once, so every Ref to the same index resolves to the
// same *engine.Display — pointer sharing survives the round trip. The
// pool must come from a Model that Validate accepted: it refuses the
// displays DecodeDisplay would.
func DecodeDisplays(ws []*WireDisplay) []*engine.Display {
	out := make([]*engine.Display, len(ws))
	var s pairScratch
	for i, w := range ws {
		out[i] = s.decodeDisplay(w)
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

// CheckContext refuses a null wire context, or one whose tree has more
// than maxNodes nodes: an n-context covers at most n elements, and the
// tree-edit distance's cost grows with the product of two trees' sizes.
// It counts the wire tree, stopping past maxNodes, so an oversized
// context is refused before any of its displays is decoded.
func CheckContext(w *WireContext, maxNodes int) error {
	if w == nil {
		return errors.New("snapshot: null context")
	}
	if countNodes(w.Root, maxNodes+1) > maxNodes {
		return fmt.Errorf("snapshot: context %s@%d has more than %d nodes", w.SessionID, w.T, maxNodes)
	}
	return nil
}

// countNodes counts the nodes of the tree under n, stopping once the
// count reaches stop (so its recursion is at most stop deep).
func countNodes(n *WireNode, stop int) int {
	if n == nil {
		return 0
	}
	count := 1
	for _, ch := range n.Children {
		if count >= stop {
			break
		}
		count += countNodes(ch, stop-count)
	}
	return count
}

// DecodeContext rebuilds a context. displays is the decoded pool that Ref
// indices resolve against; it may be nil for fully inline contexts. A
// null child is an error: every node of a context tree is a session state.
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
			d, err := DecodeDisplay(n.Display)
			if err != nil {
				return nil, fmt.Errorf("snapshot: decode context %s@%d node %d: %w", w.SessionID, w.T, n.Step, err)
			}
			cn.Display = d
		}
		for _, ch := range n.Children {
			if ch == nil {
				return nil, fmt.Errorf("snapshot: decode context %s@%d node %d: null child", w.SessionID, w.T, n.Step)
			}
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
