package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/frame"
	"repro/internal/knn"
	"repro/internal/offline"
	"repro/internal/session"
	"repro/internal/stats"
)

// miniDisplay builds a materialized display over a small typed table.
func miniDisplay(rows int, seed int64) *engine.Display {
	b := dataset.NewBuilder("mini", dataset.Schema{
		{Name: "proto", Kind: dataset.KindString},
		{Name: "bytes", Kind: dataset.KindFloat},
	})
	protos := []string{"tcp", "udp", "icmp"}
	for i := 0; i < rows; i++ {
		b.Append(dataset.S(protos[(int(seed)+i)%3]), dataset.F(float64(i)*1.25+float64(seed)))
	}
	return engine.NewRootDisplay(b.MustBuild())
}

func filterAction() *engine.Action {
	return &engine.Action{Type: engine.ActionFilter, Predicates: []engine.Predicate{
		{Column: "bytes", Op: engine.OpGt, Operand: dataset.F(0.1 + 0.2)}, // non-representable sum: exactness matters
	}}
}

func groupAction() *engine.Action {
	return &engine.Action{Type: engine.ActionGroup, GroupBy: "proto", Agg: engine.AggCount, AggColumn: "proto"}
}

// miniContext builds a 2-node context: root display -> filtered display.
func miniContext(id string, t int, root, child *engine.Display) *session.Context {
	leaf := &session.CtxNode{Display: child, Action: filterAction(), Step: t}
	return &session.Context{
		SessionID: id,
		T:         t,
		N:         3,
		Size:      3,
		Root:      &session.CtxNode{Display: root, Step: 0, Children: []*session.CtxNode{leaf}},
	}
}

// TestWireContextRoundTripDistance is the core fidelity property: the
// tree-edit distance between an original context and any other context
// must equal, bit for bit, the distance computed against its decoded wire
// form — the summary displays carry exactly the state the metric reads.
func TestWireContextRoundTripDistance(t *testing.T) {
	rootA, childA := miniDisplay(50, 0), miniDisplay(7, 1)
	rootB, childB := miniDisplay(40, 2), miniDisplay(9, 3)
	ca := miniContext("sA", 2, rootA, childA)
	cb := miniContext("sB", 3, rootB, childB)

	wc := EncodeContext(ca, nil)
	back, err := DecodeContext(wc, nil)
	if err != nil {
		t.Fatal(err)
	}
	metric := distance.TreeEdit{}
	want := metric.Distance(ca, cb)
	got := metric.Distance(back, cb)
	if got != want {
		t.Fatalf("distance drifted through wire round trip: %v -> %v", want, got)
	}
	if d := metric.Distance(back, ca); d != 0 {
		t.Fatalf("decoded context is %v from its original, want exactly 0", d)
	}
	if back.SessionID != ca.SessionID || back.T != ca.T || back.N != ca.N || back.Size != ca.Size {
		t.Fatalf("context identity drifted: %+v", back)
	}
}

// TestWireActionRoundTrip pins exact operand fidelity (floats travel in
// shortest-exact form, not a truncated rendering).
func TestWireActionRoundTrip(t *testing.T) {
	root := miniDisplay(5, 0)
	ctx := &session.Context{SessionID: "s", T: 1, N: 2, Size: 2, Root: &session.CtxNode{
		Display: root, Action: filterAction(), Step: 1,
	}}
	back, err := DecodeContext(EncodeContext(ctx, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := distance.ActionDistance(ctx.Root.Action, back.Root.Action); d != 0 {
		t.Fatalf("action distance after round trip = %v, want 0", d)
	}
	got := back.Root.Action.Predicates[0].Operand.Flt
	if got != 0.1+0.2 {
		t.Fatalf("operand drifted: % .20f", got)
	}
	// Group actions round-trip too.
	g := &session.Context{SessionID: "g", T: 1, N: 2, Size: 2, Root: &session.CtxNode{
		Display: root, Action: groupAction(), Step: 1,
	}}
	gback, err := DecodeContext(EncodeContext(g, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := distance.ActionDistance(g.Root.Action, gback.Root.Action); d != 0 {
		t.Fatalf("group action drifted: %v", d)
	}
}

// TestPoolPreservesSharing: two contexts referencing the same display
// must decode to two contexts referencing the same *Display pointer.
func TestPoolPreservesSharing(t *testing.T) {
	shared := miniDisplay(30, 4)
	c1 := miniContext("s1", 1, shared, miniDisplay(3, 5))
	c2 := miniContext("s2", 2, shared, miniDisplay(4, 6))

	pool := NewPool()
	w1 := EncodeContext(c1, pool)
	w2 := EncodeContext(c2, pool)
	if n := len(pool.Displays()); n != 3 {
		t.Fatalf("pool has %d displays, want 3 (shared root interned once)", n)
	}
	displays := DecodeDisplays(pool.Displays())
	d1, err := DecodeContext(w1, displays)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DecodeContext(w2, displays)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Root.Display != d2.Root.Display {
		t.Fatal("shared display decoded to distinct pointers")
	}
	if d1.Root.Children[0].Display == d2.Root.Children[0].Display {
		t.Fatal("distinct displays decoded to one pointer")
	}
}

func TestDecodeContextBadRef(t *testing.T) {
	w := &WireContext{SessionID: "s", Root: &WireNode{Step: 0, Ref: 5}}
	if _, err := DecodeContext(w, nil); err == nil {
		t.Fatal("out-of-range ref should fail")
	}
}

func testModel() *Model {
	pool := NewPool()
	ctx := miniContext("s1", 1, miniDisplay(20, 0), miniDisplay(5, 1))
	return &Model{
		Method:     "normalized",
		Measures:   []string{"variance", "schutz"},
		N:          2,
		K:          3,
		ThetaDelta: 0.1,
		ThetaI:     0.7,
		Fallback:   "abstain",
		Norms: map[string]offline.MeasureNorm{
			"variance": {BoxCox: stats.BoxCoxParams{Lambda: 0.3321928094887362, Shift: 1e-9}, Mean: 0.1 + 0.2, Std: math.Nextafter(1, 2)},
		},
		Displays: func() []*WireDisplay { EncodeContext(ctx, pool); return pool.Displays() }(),
		Samples: []SampleRec{
			{Context: EncodeContext(ctx, pool), Labels: []string{"variance"}, Best: 1.25},
		},
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	m := testModel()
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Method != m.Method || back.K != m.K || back.ThetaDelta != m.ThetaDelta {
		t.Fatalf("model drifted: %+v", back)
	}
	// Exact float fidelity through the envelope, last-ULP included.
	got := back.Norms["variance"]
	want := m.Norms["variance"]
	if got != want {
		t.Fatalf("norms drifted: % .20g vs % .20g", got, want)
	}
	if len(back.Samples) != 1 || back.Samples[0].Labels[0] != "variance" || back.Samples[0].Best != 1.25 {
		t.Fatalf("samples drifted: %+v", back.Samples)
	}
}

func TestSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.snap")
	if err := Save(path, testModel()); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	// A failed overwrite (missing directory) leaves the original loadable.
	if err := Save(filepath.Join(dir, "absent", "x.snap"), testModel()); err == nil {
		t.Fatal("save into missing directory should fail")
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("original snapshot disturbed: %v", err)
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testModel()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip one payload byte: checksum must catch it before JSON parsing.
	bad := append([]byte(nil), good...)
	bad[30] ^= 0xff
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted payload: err = %v, want ErrChecksum", err)
	}

	// Truncation fails loudly.
	if _, err := Read(bytes.NewReader(good[:len(good)-4])); err == nil {
		t.Fatal("truncated snapshot should fail")
	}
	if _, err := Read(bytes.NewReader(good[:10])); err == nil {
		t.Fatal("truncated header should fail")
	}

	// Wrong magic.
	notSnap := append([]byte("NOTASNAP"), good[8:]...)
	if _, err := Read(bytes.NewReader(notSnap)); err == nil {
		t.Fatal("bad magic should fail")
	}

	// A newer format version is refused, not half-parsed.
	newer := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(newer[8:12], Version+1)
	if _, err := Read(bytes.NewReader(newer)); !errors.Is(err, ErrNewerVersion) {
		t.Fatalf("newer version: err = %v, want ErrNewerVersion", err)
	}

	// An absurd declared payload length is capped, not allocated.
	huge := append([]byte(nil), good[:24]...)
	binary.BigEndian.PutUint64(huge[16:24], frame.MaxPayload+1)
	if _, err := Read(bytes.NewReader(huge)); err == nil {
		t.Fatal("oversized payload declaration should fail")
	}
}

// TestWriteRejectsNonFinite: NaN normalization state must fail the save
// loudly instead of writing a snapshot that silently skews predictions.
func TestWriteRejectsNonFinite(t *testing.T) {
	m := testModel()
	m.Norms["bad"] = offline.MeasureNorm{Mean: math.NaN()}
	var buf bytes.Buffer
	if err := Write(&buf, m); err == nil {
		t.Fatal("NaN in model should fail to encode")
	}
}

// TestValidate: Read refuses, through Validate, every model the scan
// cannot serve, and accepts the fixture model.
func TestValidate(t *testing.T) {
	if err := testModel().Validate(); err != nil {
		t.Fatalf("fixture model: %v", err)
	}
	for name, mutate := range map[string]func(m *Model){
		"unknown method":         func(m *Model) { m.Method = "bogus" },
		"unknown fallback":       func(m *Model) { m.Fallback = "guess" },
		"unknown measure":        func(m *Model) { m.Measures = append(m.Measures, "entropy?") },
		"n = 0":                  func(m *Model) { m.N = 0 },
		"k = 0":                  func(m *Model) { m.K = 0 },
		"negative θ_δ":           func(m *Model) { m.ThetaDelta = -0.1 },
		"no samples":             func(m *Model) { m.Samples = nil },
		"null sample context":    func(m *Model) { m.Samples[0].Context = nil },
		"null pooled display":    func(m *Model) { m.Displays = append(m.Displays, nil) },
		"sample over n nodes":    func(m *Model) { m.N = 1 },
		"oversized pool display": func(m *Model) { m.Displays = append(m.Displays, wideDisplay(maxTopFreqKeys+1)) },
	} {
		m := testModel()
		mutate(m)
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err == nil {
			t.Errorf("Read accepted a model with %s", name)
		}
	}
}

// TestValidateFallbackNames keeps Validate's fallback names in step with
// the policies knn parses.
func TestValidateFallbackNames(t *testing.T) {
	for _, name := range []string{"", "abstain", "nearest", "prior", "Prior", "none", "fallback(3)"} {
		m := testModel()
		m.Fallback = name
		_, perr := knn.ParseFallbackPolicy(name)
		if verr := m.Validate(); (verr == nil) != (perr == nil) {
			t.Errorf("fallback %q: Validate %v, knn.ParseFallbackPolicy %v", name, verr, perr)
		}
	}
}

// TestCheckContext: the node cap counts the wire tree — null children
// are skipped, DecodeContext refuses them — and stops counting past the
// cap, so a deep chain is refused without walking it.
func TestCheckContext(t *testing.T) {
	chain := func(depth int) *WireContext {
		root := &WireNode{}
		for cur, i := root, 1; i < depth; i++ {
			cur.Children = []*WireNode{{Step: i}}
			cur = cur.Children[0]
		}
		return &WireContext{SessionID: "q", Root: root}
	}
	for _, tc := range []struct {
		w        *WireContext
		maxNodes int
		ok       bool
	}{
		{nil, 5, false},
		{&WireContext{}, 0, true},
		{chain(3), 3, true},
		{chain(4), 3, false},
		{chain(1), 0, false},
		{chain(1 << 16), 3, false},
		{&WireContext{Root: &WireNode{Children: []*WireNode{{}, nil, {}}}}, 3, true},
		{&WireContext{Root: &WireNode{Children: []*WireNode{{Children: []*WireNode{{}}}, {}}}}, 3, false},
	} {
		if err := CheckContext(tc.w, tc.maxNodes); (err == nil) != tc.ok {
			t.Errorf("CheckContext(%d-node cap) = %v, want ok=%v", tc.maxNodes, err, tc.ok)
		}
	}
}
