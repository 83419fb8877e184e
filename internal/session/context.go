package session

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/engine"
)

// CtxNode is a node of an extracted n-context tree. Each node carries the
// display and the action on its incoming edge (nil for the context root).
type CtxNode struct {
	Display *engine.Display
	// Action labels the edge from this node's parent within the context.
	Action *engine.Action
	// Step is the originating session step, kept for deterministic
	// ordering and debugging.
	Step     int
	Children []*CtxNode
}

// Context is the n-context c_t of a session state S_t (Section 3.2): the
// minimal subtree of the session covering the most recent
// min(n, 2t+1) elements (displays and actions) up to step t.
type Context struct {
	// SessionID and T locate the originating state.
	SessionID string
	T         int
	// N is the requested context size parameter.
	N int
	// Root is the context subtree's root (the included node closest to
	// the session root).
	Root *CtxNode
	// Size is the number of covered elements (nodes + edges).
	Size int
}

// Key is a context's identity, "<session>@<t>/<n>". Ring placement
// (ring.SampleKey) and every fault probe keyed on a context hash these
// bytes, so every subsystem names a context the same way.
func Key(sessionID string, t, n int) string {
	return sessionID + "@" + strconv.Itoa(t) + "/" + strconv.Itoa(n)
}

// Extract computes the n-context of state S_t.
//
// Elements are considered in reverse execution order (d_t, then for
// s = t..1 the edge q_s with its endpoint displays). An edge joins the
// cover only while connected to it, which keeps the covered set a single
// subtree and matches the paper's Example 3.3: the 3-context at t=2 of the
// running example is {d0, q2, d2} even though d1 was produced more
// recently than d0.
//
// Element accounting: a covered node and a covered edge each count 1.
// When the budget has exactly one element left, the next edge may enter
// *without* its parent display — the context then remembers the action
// that produced its oldest display but not what it was executed on. This
// makes even context sizes (including the Normalized method's default
// n=2, covering exactly {q_t, d_t}) well defined.
func Extract(st State, n int) *Context {
	t := st.T
	limit := 2*t + 1
	if n < limit {
		limit = n
	}
	if limit < 1 {
		limit = 1
	}
	s := st.Session
	covered := make(map[*Node]bool)
	edgeCovered := make(map[*Node]bool) // keyed by the child node of the edge

	cur := s.NodeAt(t)
	covered[cur] = true
	size := 1
	// Repeated reverse-execution-order passes: a branch that is
	// disconnected from the cover on one pass (e.g. a sibling of an
	// ancestor not yet reached) becomes connectable once the walk has
	// covered the shared ancestor, so iterate until a pass makes no
	// progress or the budget is spent.
	for progress := true; progress && size < limit; {
		progress = false
		for step := t; step >= 1 && size < limit; step-- {
			child := s.NodeAt(step)
			parent := child.Parent
			if edgeCovered[child] {
				continue
			}
			switch {
			case covered[child]:
				// The edge into an already-covered display: the edge
				// itself, plus the parent display if the budget still
				// allows it.
				edgeCovered[child] = true
				size++
				progress = true
				if size < limit && !covered[parent] {
					covered[parent] = true
					size++
				}
			case covered[parent] && size+2 <= limit:
				// A sibling/descendant branch: needs edge + child display.
				edgeCovered[child] = true
				covered[child] = true
				size += 2
				progress = true
			default:
				// Disconnected from the covered subtree, or out of budget.
			}
		}
	}

	// Build the context tree from the covered sets. The root is the
	// covered node with no covered parent; it keeps its incoming action
	// label when that edge made the cover without the parent display.
	nodes := make([]*Node, 0, len(covered))
	for n := range covered {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Step < nodes[j].Step })

	ctxOf := make(map[*Node]*CtxNode, len(nodes))
	var root *CtxNode
	for _, sn := range nodes {
		cn := &CtxNode{Display: sn.Display, Step: sn.Step}
		if edgeCovered[sn] {
			cn.Action = sn.Action
		}
		ctxOf[sn] = cn
	}
	for _, sn := range nodes {
		cn := ctxOf[sn]
		if edgeCovered[sn] && sn.Parent != nil && covered[sn.Parent] {
			p := ctxOf[sn.Parent]
			p.Children = append(p.Children, cn)
			continue
		}
		if root == nil || cn.Step < root.Step {
			root = cn
		}
	}
	return &Context{SessionID: s.ID, T: t, N: n, Root: root, Size: size}
}

// Nodes returns the context's nodes in pre-order.
func (c *Context) Nodes() []*CtxNode {
	var out []*CtxNode
	var walk func(*CtxNode)
	walk = func(n *CtxNode) {
		if n == nil {
			return
		}
		out = append(out, n)
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(c.Root)
	return out
}

// String renders the context structure compactly, e.g.
// "ctx(s1@2,size=3): d0 -[filter[...]]-> d2".
func (c *Context) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ctx(%s@%d,size=%d):", c.SessionID, c.T, c.Size)
	var walk func(n *CtxNode, depth int)
	walk = func(n *CtxNode, depth int) {
		if n == nil {
			return
		}
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("  ", depth))
		if n.Action != nil {
			fmt.Fprintf(&b, "-[%s]-> ", n.Action)
		}
		fmt.Fprintf(&b, "d%d(%d rows)", n.Step, n.Display.NumRows())
		for _, ch := range n.Children {
			walk(ch, depth+1)
		}
	}
	walk(c.Root, 1)
	return b.String()
}

// Fingerprint returns a canonical string identity for the context's
// structure and action labels, used to detect identical n-contexts that
// received different labels (Section 4.2: "In case that identical
// n-contexts obtained different labels we unanimously labeled them by the
// most common label(s)"). Display content is summarized by shape
// (rows, aggregated flag, group column) rather than full data, mirroring
// how two users reaching the same point via the same actions produce the
// "same" context.
func (c *Context) Fingerprint() string {
	var b strings.Builder
	b.WriteString(datasetOfContext(c))
	var walk func(n *CtxNode)
	walk = func(n *CtxNode) {
		if n == nil {
			return
		}
		b.WriteByte('(')
		if n.Action != nil {
			b.WriteString(n.Action.String())
		} else {
			b.WriteString("root")
		}
		fmt.Fprintf(&b, "|r%d", n.Display.NumRows())
		if n.Display.Aggregated {
			fmt.Fprintf(&b, "|g:%s", n.Display.GroupColumn)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
		b.WriteByte(')')
	}
	walk(c.Root)
	return b.String()
}

func datasetOfContext(c *Context) string {
	if c.Root != nil && c.Root.Display != nil && c.Root.Display.Table != nil {
		return c.Root.Display.Table.Name() + "|"
	}
	return "|"
}
