package distance

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/session"
)

func packetRoot(t *testing.T) *engine.Display {
	t.Helper()
	b := dataset.NewBuilder("pkts", dataset.Schema{
		{Name: "protocol", Kind: dataset.KindString},
		{Name: "dst_ip", Kind: dataset.KindString},
		{Name: "hour", Kind: dataset.KindInt},
	})
	rows := []struct {
		p, ip string
		h     int64
	}{
		{"HTTP", "a", 9}, {"HTTP", "a", 21}, {"HTTP", "b", 22}, {"HTTP", "b", 23},
		{"HTTPS", "c", 10}, {"DNS", "d", 11}, {"SSH", "e", 12}, {"SSH", "e", 13},
	}
	for _, r := range rows {
		b.Append(dataset.S(r.p), dataset.S(r.ip), dataset.I(r.h))
	}
	return engine.NewRootDisplay(b.MustBuild())
}

func sessionWith(t *testing.T, root *engine.Display, actions ...*engine.Action) *session.Session {
	t.Helper()
	s := session.New("s", "pkts", root)
	for _, a := range actions {
		if _, err := s.Apply(a); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func ctxAtEnd(t *testing.T, s *session.Session, n int) *session.Context {
	t.Helper()
	st, err := s.StateAt(s.Steps())
	if err != nil {
		t.Fatal(err)
	}
	return session.Extract(st, n)
}

func TestActionDistanceProperties(t *testing.T) {
	f1 := engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")})
	f1b := engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")})
	f2 := engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("SSH")})
	f3 := engine.NewFilter(engine.Predicate{Column: "hour", Op: engine.OpGt, Operand: dataset.I(19)})
	g1 := engine.NewGroupCount("protocol")
	g2 := engine.NewGroupCount("dst_ip")

	if got := ActionDistance(f1, f1b); got != 0 {
		t.Errorf("identical actions distance = %v", got)
	}
	if got := ActionDistance(f1, g1); got != 1 {
		t.Errorf("cross-type distance = %v, want 1", got)
	}
	// Same column, different operand < different column.
	dSameCol := ActionDistance(f1, f2)
	dDiffCol := ActionDistance(f1, f3)
	if dSameCol >= dDiffCol {
		t.Errorf("same-column filters should be closer: %v vs %v", dSameCol, dDiffCol)
	}
	if d := ActionDistance(g1, g2); d <= 0 || d > 1 {
		t.Errorf("different group columns = %v", d)
	}
	if got := ActionDistance(nil, nil); got != 0 {
		t.Errorf("nil-nil = %v", got)
	}
	if got := ActionDistance(f1, nil); got != 1 {
		t.Errorf("nil mismatch = %v", got)
	}
	// Symmetry.
	if ActionDistance(f1, f3) != ActionDistance(f3, f1) {
		t.Error("action distance must be symmetric")
	}
}

func TestDisplayDistanceProperties(t *testing.T) {
	root := packetRoot(t)
	http, err := engine.Execute(root, engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")}))
	if err != nil {
		t.Fatal(err)
	}
	ssh, err := engine.Execute(root, engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("SSH")}))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := engine.Execute(root, engine.NewGroupCount("protocol"))
	if err != nil {
		t.Fatal(err)
	}

	if got := DisplayDistance(root, root); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	for _, pair := range [][2]*engine.Display{{root, http}, {http, ssh}, {root, agg}} {
		d := DisplayDistance(pair[0], pair[1])
		if d < 0 || d > 1 {
			t.Errorf("distance out of range: %v", d)
		}
		if d != DisplayDistance(pair[1], pair[0]) {
			t.Error("display distance must be symmetric")
		}
	}
	// A raw slice is closer to another raw slice than to an aggregation.
	if DisplayDistance(http, ssh) >= DisplayDistance(http, agg) {
		t.Errorf("agg-shape mismatch should dominate: raw-raw %v vs raw-agg %v",
			DisplayDistance(http, ssh), DisplayDistance(http, agg))
	}
	if got := DisplayDistance(nil, nil); got != 0 {
		t.Errorf("nil-nil = %v", got)
	}
	if got := DisplayDistance(root, nil); got != 1 {
		t.Errorf("nil mismatch = %v", got)
	}
}

func TestTreeEditIdentityAndSymmetry(t *testing.T) {
	root := packetRoot(t)
	s1 := sessionWith(t, root,
		engine.NewGroupCount("protocol"),
	)
	s2 := sessionWith(t, root,
		engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")}),
		engine.NewGroupCount("dst_ip"),
	)
	c1 := ctxAtEnd(t, s1, 3)
	c2 := ctxAtEnd(t, s2, 5)
	m := TreeEdit{}
	if got := m.Distance(c1, c1); got != 0 {
		t.Errorf("self distance = %v", got)
	}
	d12, d21 := m.Distance(c1, c2), m.Distance(c2, c1)
	if math.Abs(d12-d21) > 1e-12 {
		t.Errorf("asymmetric: %v vs %v", d12, d21)
	}
	if d12 <= 0 || d12 > 1 {
		t.Errorf("distance out of range: %v", d12)
	}
}

func TestTreeEditSimilarVsDissimilar(t *testing.T) {
	root := packetRoot(t)
	// Two near-identical analysis paths (same filter, slightly different
	// threshold) vs a completely different path.
	a := sessionWith(t, root,
		engine.NewFilter(
			engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")},
			engine.Predicate{Column: "hour", Op: engine.OpGt, Operand: dataset.I(19)},
		))
	b := sessionWith(t, root,
		engine.NewFilter(
			engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")},
			engine.Predicate{Column: "hour", Op: engine.OpGt, Operand: dataset.I(20)},
		))
	c := sessionWith(t, root, engine.NewGroupCount("dst_ip"))

	m := TreeEdit{}
	ca, cb, cc := ctxAtEnd(t, a, 3), ctxAtEnd(t, b, 3), ctxAtEnd(t, c, 3)
	dSimilar := m.Distance(ca, cb)
	dDifferent := m.Distance(ca, cc)
	if dSimilar >= dDifferent {
		t.Errorf("similar paths %v should be closer than different paths %v", dSimilar, dDifferent)
	}
}

func TestTreeEditSizeMismatchCostsInsertions(t *testing.T) {
	root := packetRoot(t)
	short := sessionWith(t, root, engine.NewGroupCount("protocol"))
	long := sessionWith(t, root,
		engine.NewGroupCount("protocol"))
	if _, err := long.Apply(engine.NewFilter(engine.Predicate{Column: "count", Op: engine.OpGt, Operand: dataset.F(1)})); err != nil {
		t.Fatal(err)
	}
	m := TreeEdit{}
	cs := ctxAtEnd(t, short, 3)
	cl := ctxAtEnd(t, long, 5)
	if d := m.Distance(cs, cl); d <= 0 {
		t.Errorf("prefix context should still differ: %v", d)
	}
}

func TestMemoizedTreeEditMatchesPlain(t *testing.T) {
	root := packetRoot(t)
	sessions := []*session.Session{
		sessionWith(t, root, engine.NewGroupCount("protocol")),
		sessionWith(t, root, engine.NewGroupCount("dst_ip")),
		sessionWith(t, root,
			engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")}),
			engine.NewGroupCount("dst_ip")),
	}
	var ctxs []*session.Context
	for _, s := range sessions {
		ctxs = append(ctxs, ctxAtEnd(t, s, 5))
	}
	plain := TreeEdit{}
	memo := NewMemo()
	cached := NewMemoizedTreeEdit(memo)
	for i := range ctxs {
		for j := range ctxs {
			p := plain.Distance(ctxs[i], ctxs[j])
			c := cached.Distance(ctxs[i], ctxs[j])
			if math.Abs(p-c) > 1e-12 {
				t.Errorf("memoized differs at (%d,%d): %v vs %v", i, j, p, c)
			}
		}
	}
	if memo.Size() == 0 {
		t.Error("memo should have cached display pairs")
	}
}

func TestLastActionMetric(t *testing.T) {
	root := packetRoot(t)
	a := sessionWith(t, root, engine.NewGroupCount("protocol"))
	b := sessionWith(t, root,
		engine.NewFilter(engine.Predicate{Column: "hour", Op: engine.OpGt, Operand: dataset.I(10)}),
		engine.NewGroupCount("protocol"))
	m := LastActionMetric{}
	ca, cb := ctxAtEnd(t, a, 5), ctxAtEnd(t, b, 5)
	// Both end with group[protocol].count(); the flat metric sees only
	// that, so the distance reflects just the display-content gap.
	if d := m.Distance(ca, cb); d > 0.5 {
		t.Errorf("same last action should be close under the flat metric, got %v", d)
	}
	if d := m.Distance(ca, ca); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	if m.Name() != "last-action" || (TreeEdit{}).Name() != "tree-edit" {
		t.Error("metric names wrong")
	}
}

func TestTreeEditTriangleInequalityOnSample(t *testing.T) {
	// TED with unit ins/del and a metric ground cost satisfies the
	// triangle inequality; spot-check on a handful of contexts.
	root := packetRoot(t)
	actions := []*engine.Action{
		engine.NewGroupCount("protocol"),
		engine.NewGroupCount("dst_ip"),
		engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")}),
	}
	var ctxs []*session.Context
	for _, a := range actions {
		ctxs = append(ctxs, ctxAtEnd(t, sessionWith(t, root, a), 3))
	}
	m := TreeEdit{}
	for i := range ctxs {
		for j := range ctxs {
			for k := range ctxs {
				dij := m.Distance(ctxs[i], ctxs[j])
				djk := m.Distance(ctxs[j], ctxs[k])
				dik := m.Distance(ctxs[i], ctxs[k])
				if dik > dij+djk+1e-9 {
					t.Errorf("triangle violated: d(%d,%d)=%v > %v + %v", i, k, dik, dij, djk)
				}
			}
		}
	}
}

// TestDisplayDistanceBitDeterministic pins the ground metric as a pure
// function: repeated calls on the same pair must agree to the last bit
// (totalVariation once summed in randomized map order, which made every
// matrix fill ULP-nondeterministic — the bug this test guards against).
func TestDisplayDistanceBitDeterministic(t *testing.T) {
	root := packetRoot(t)
	http, err := engine.Execute(root, engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")}))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := engine.Execute(root, engine.NewGroupCount("protocol"))
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]*engine.Display{{root, http}, {http, agg}, {root, agg}} {
		first := DisplayDistance(pair[0], pair[1])
		for i := 0; i < 50; i++ {
			if got := DisplayDistance(pair[0], pair[1]); got != first {
				t.Fatalf("call %d: %v != %v (nondeterministic ground metric)", i, got, first)
			}
		}
	}
}

// TestDisplayDistanceReflexiveWithDuplicateColumns pins the fix for the
// snapshot-reload prediction drift: an aggregated display can carry two
// columns with one name (e.g. grouping by "count" into a count aggregate),
// and pairing shared columns through a plain by-name lookup compared both
// duplicates against the same column — making d(x, x) = 0.2 instead of 0.
// In-process the memo's pointer-identity shortcut hid the asymmetry;
// snapshot-decoded displays stopped sharing pointers and exposed it as
// near-threshold kNN predictions flipping after reload.
func TestDisplayDistanceReflexiveWithDuplicateColumns(t *testing.T) {
	mk := func(freqs ...map[string]float64) *engine.Display {
		cols := make([]engine.ColumnProfile, len(freqs))
		tops := make([][]engine.KeyWeight, len(freqs))
		for i := range freqs {
			cols[i] = engine.ColumnProfile{Name: "count"}
			tops[i] = pairsOf(freqs[i])
		}
		return engine.NewSummaryDisplay(1, true, "count", "count", engine.NewProfile(1, cols, tops))
	}
	a := mk(map[string]float64{"37": 1}, map[string]float64{"1": 1})
	b := mk(map[string]float64{"37": 1}, map[string]float64{"1": 1})
	if d := DisplayDistance(a, a); d != 0 {
		t.Fatalf("self distance with duplicate column names = %v, want 0", d)
	}
	if d := DisplayDistance(a, b); d != 0 {
		t.Fatalf("content-identical twin distance = %v, want 0", d)
	}
	// The memoized ground metric must agree with the direct one — the
	// pointer shortcut is only sound when the metric is reflexive.
	memo := NewMemo()
	if d := memo.DisplayDistance(a, b); d != 0 {
		t.Fatalf("memoized twin distance = %v, want 0", d)
	}
	// Swapping the duplicates changes the display: columns pair by
	// (name, occurrence ordinal), in declaration order.
	c := mk(map[string]float64{"1": 1}, map[string]float64{"37": 1})
	d1, d2 := DisplayDistance(a, c), DisplayDistance(c, a)
	if d1 == 0 {
		t.Fatal("swapped duplicate columns should not compare as identical")
	}
	if d1 != d2 {
		t.Fatalf("asymmetric: %v vs %v", d1, d2)
	}
}
