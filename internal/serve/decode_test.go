package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/knn"
	"repro/internal/session"
	"repro/internal/snapshot"
)

var update = flag.Bool("update", false, "rewrite testdata/malformed.golden from this run")

// decodeTier is the tier every request-decode test drives: a standalone
// server, a 3×2 ring's router, and one replica with the shard it
// serves, all over the same 30-sample model with n = 4.
type decodeTier struct {
	whole                   *knn.Classifier
	server, router, replica http.Handler
	shard                   int
	maxBatch                int
	n                       int
}

func newDecodeTier(t *testing.T) *decodeTier {
	t.Helper()
	whole := knn.New(ringTrainingSet(30), distance.TreeEdit{}, knn.Config{K: 3, ThetaDelta: 0.3, Workers: 1})
	info := ModelInfo{N: 4, Prior: whole.Prior(), Checksum: "cafe"}
	tr := startRing(t, 3, 2, 3, whole, info, RouterOptions{})
	dt := &decodeTier{whole: whole, server: New(whole, info, Options{}).Handler(), router: tr.rt.Handler(), n: info.N}
	for _, r := range tr.replicas {
		if sh := r.Status().Shards; len(sh) > 0 {
			dt.replica, dt.shard, dt.maxBatch = r.Handler(), sh[0], r.opts.MaxBatch
			break
		}
	}
	return dt
}

// malformedCase is one body every decoding endpoint refuses. ctx is a
// context's JSON, wrapped in each endpoint's envelope; body, when set,
// writes the whole body per envelope instead ("" skips that envelope).
type malformedCase struct {
	name string
	ctx  string
	body func(env string) string
}

// envelope wraps contexts in the named request form: "predict" is
// {"context":C}, "batch" {"contexts":[…]}, and "candidates" the
// replica's {"shard":N,"max_dist":L,"contexts":[…]}.
func (dt *decodeTier) envelope(env string, ctxs ...string) string {
	switch env {
	case "predict":
		return `{"context":` + ctxs[0] + `}`
	case "batch":
		return `{"contexts":[` + strings.Join(ctxs, ",") + `]}`
	default:
		return `{"shard":` + strconv.Itoa(dt.shard) + `,"max_dist":0.3,"contexts":[` + strings.Join(ctxs, ",") + `]}`
	}
}

// target is one endpoint a decode test posts to.
type target struct {
	name string
	h    http.Handler
	path string
	env  string
}

func (dt *decodeTier) targets() []target {
	return []target{
		{"server", dt.server, "/v1/predict", "predict"},
		{"server", dt.server, "/v1/predict/batch", "batch"},
		{"router", dt.router, "/v1/predict", "predict"},
		{"router", dt.router, "/v1/predict/batch", "batch"},
		{"replica", dt.replica, "/v1/knn/candidates", "candidates"},
	}
}

// mustJSON marshals v, the way every client of the tier writes a body.
func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func (dt *decodeTier) malformedCases(t *testing.T) []malformedCase {
	good := mustJSON(t, snapshot.EncodeContext(chainCtx("q", 1, 2), nil))
	over := make([]string, dt.maxBatch+1)
	for i := range over {
		over[i] = good
	}
	return []malformedCase{
		{name: "unknown action type", ctx: `{"session_id":"q","t":1,"n":3,"size":1,"root":{"step":1,"action":{"type":"nope"}}}`},
		{name: "null child", ctx: `{"session_id":"q","t":1,"n":3,"size":1,"root":{"step":1,"children":[null]}}`},
		{name: "n+1 nodes", ctx: mustJSON(t, snapshot.EncodeContext(chainCtx("q", 1, dt.n+1), nil))},
		{name: "26-key histogram", ctx: mustJSON(t, &snapshot.WireContext{SessionID: "q", T: 1, N: 3, Size: 1,
			Root: &snapshot.WireNode{Step: 1, Display: wideWireDisplay(26)}})},
		{name: "1.5 for t", ctx: `{"session_id":"q","t":1.5,"n":3,"size":1,"root":{"step":1}}`},
		{name: "trailing garbage", body: func(env string) string { return dt.envelope(env, good) + "x" }},
		{name: "missing context", body: func(env string) string {
			if env == "candidates" {
				return `{"shard":` + strconv.Itoa(dt.shard) + `}`
			}
			return `{}`
		}},
		{name: "empty batch", body: func(env string) string {
			if env == "predict" {
				return ""
			}
			return dt.envelope(env)
		}},
		{name: "over-cap batch", body: func(env string) string {
			if env == "predict" {
				return ""
			}
			return dt.envelope(env, over...)
		}},
		{name: "negative max_dist", body: func(env string) string {
			if env != "candidates" {
				return ""
			}
			return `{"shard":` + strconv.Itoa(dt.shard) + `,"max_dist":-1,"contexts":[` + good + `]}`
		}},
		{name: "unknown shard", body: func(env string) string {
			if env != "candidates" {
				return ""
			}
			return `{"shard":99,"max_dist":0.3,"contexts":[` + good + `]}`
		}},
	}
}

// wideWireDisplay is a one-column wire display whose histogram has keys
// keys.
func wideWireDisplay(keys int) *snapshot.WireDisplay {
	top := make(map[string]float64, keys)
	for i := 0; i < keys; i++ {
		top[fmt.Sprint("v", i)] = 1 / float64(keys)
	}
	return &snapshot.WireDisplay{Rows: keys, Columns: []snapshot.WireColumn{{Name: "port", TopFreq: top}}}
}

// TestMalformedRequestsGolden pins the status and error text a
// standalone server, a router and a replica answer to each malformed
// body, as testdata/malformed.golden recorded them. Regenerate with
//
//	go test ./internal/serve -run MalformedRequestsGolden -update
func TestMalformedRequestsGolden(t *testing.T) {
	dt := newDecodeTier(t)
	var got bytes.Buffer
	for _, tc := range dt.malformedCases(t) {
		for _, tg := range dt.targets() {
			body := ""
			if tc.body != nil {
				body = tc.body(tg.env)
			} else {
				body = dt.envelope(tg.env, tc.ctx)
			}
			if body == "" {
				continue
			}
			rec := post(t, tg.h, tg.path, body)
			fmt.Fprintf(&got, "%s %s, %s: %d %s\n", tg.name, tg.path, tc.name, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
	path := filepath.Join("testdata", "malformed.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}

// decodeQueries are query contexts within the tier's n whose nodes carry
// a filter action and a display with a folded histogram, so their
// canonical JSON holds escapes ("\u003e", "\u0026", "\u0000other").
func decodeQueries() []*session.Context {
	b := dataset.NewBuilder("q", dataset.Schema{{Name: "port", Kind: dataset.KindInt}, {Name: "proto", Kind: dataset.KindString}})
	for i := 0; i < 60; i++ {
		b.Append(dataset.I(int64(i)), dataset.S([]string{"tcp", "udp<&>"}[i%2]))
	}
	d := engine.NewRootDisplay(b.MustBuild())
	filter := &engine.Action{Type: engine.ActionFilter, Predicates: []engine.Predicate{{Column: "port", Op: engine.OpGt, Operand: dataset.I(3)}}}
	var qs []*session.Context
	for i := 0; i < 6; i++ {
		q := chainCtx(fmt.Sprintf("q%d", i), i, 1+i%4)
		q.Root.Display = d
		if ch := q.Root.Children; len(ch) > 0 {
			ch[0].Action, ch[0].Display = filter, d
		}
		qs = append(qs, q)
	}
	return qs
}

// canonicalContextForms writes the first two decodeQueries as
// json.Marshal does, indented, without HTML escapes, and with every
// object's keys reordered: all canonical forms the reader accepts.
func canonicalContextForms(t testing.TB) []string {
	var out []string
	for _, q := range decodeQueries()[:2] {
		wc := snapshot.EncodeContext(q, nil)
		compact := mustJSON(t, wc)
		var indented, plain bytes.Buffer
		if err := json.Indent(&indented, []byte(compact), "", "  "); err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(&plain)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(wc); err != nil {
			t.Fatal(err)
		}
		var tree any
		if err := json.Unmarshal([]byte(compact), &tree); err != nil {
			t.Fatal(err)
		}
		out = append(out, compact, indented.String(), plain.String(), mustJSON(t, tree))
	}
	return out
}

// TestRequestDecodePaths pins what callers see from the two request
// decodes. Canonical bodies, written compact, indented or with every
// object's keys reordered, get the answers the whole model gives and
// never reach encoding/json (serve.decode_fallback stays put). Bodies
// only encoding/json reads (an upper-case key, an unknown field, a
// repeated key, an explicit null) get the same answers through it, one
// fallback per body: a router forwards such contexts re-encoded, so its
// replicas, which count in the same process, read them in one pass.
func TestRequestDecodePaths(t *testing.T) {
	dt := newDecodeTier(t)
	qs := decodeQueries()
	ctxs := make([]string, len(qs))
	for i, q := range qs {
		ctxs[i] = mustJSON(t, snapshot.EncodeContext(q, nil))
	}
	indent := func(body string) string {
		var b bytes.Buffer
		if err := json.Indent(&b, []byte(body), "", "  "); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	reorder := func(body string) string {
		var tree any
		if err := json.Unmarshal([]byte(body), &tree); err != nil {
			t.Fatal(err)
		}
		return mustJSON(t, tree)
	}
	first := func(old, new string) func(string) string {
		return func(body string) string { return strings.Replace(body, old, new, 1) }
	}
	canonical := map[string]func(string) string{"indented": indent, "reordered": reorder}
	fallback := map[string]func(string) string{
		"upper-case key": first(`"session_id":`, `"Session_id":`),
		"unknown field":  first(`"session_id":`, `"extra":1,"session_id":`),
		"repeated key":   first(`"t":`, `"t":-1,"t":`),
		"explicit null":  first(`"root":{`, `"root":{"action":null,`),
	}
	for _, tg := range dt.targets() {
		compact := dt.envelope(tg.env, ctxs...)
		want := post(t, tg.h, tg.path, compact)
		if want.Code != http.StatusOK {
			t.Fatalf("%s %s: compact body answered %d %s", tg.name, tg.path, want.Code, want.Body)
		}
		if tg.env != "candidates" {
			dt.checkPredictions(t, tg, want.Body.Bytes(), qs)
		}
		check := func(form string, body string, fallbacks uint64) {
			before := mDecodeFallback.Load()
			rec := post(t, tg.h, tg.path, body)
			if got := mDecodeFallback.Load() - before; got != fallbacks {
				t.Errorf("%s %s, %s: serve.decode_fallback moved by %d, want %d", tg.name, tg.path, form, got, fallbacks)
			}
			if rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
				t.Errorf("%s %s, %s: answered %d %s, want %s", tg.name, tg.path, form, rec.Code, rec.Body, want.Body)
			}
		}
		check("compact", compact, 0)
		for form, rewrite := range canonical {
			check(form, rewrite(compact), 0)
		}
		for form, rewrite := range fallback {
			check(form, rewrite(compact), 1)
		}
	}
}

// checkPredictions compares a predict response with the whole model's
// predictions for qs (just the first for a single predict).
func (dt *decodeTier) checkPredictions(t *testing.T, tg target, body []byte, qs []*session.Context) {
	t.Helper()
	var got []predictResponse
	if tg.env == "batch" {
		got = decodeBatch(t, body)
	} else {
		var one predictResponse
		if err := json.Unmarshal(body, &one); err != nil {
			t.Fatal(err)
		}
		got, qs = []predictResponse{one}, qs[:1]
	}
	if len(got) != len(qs) {
		t.Fatalf("%s %s: %d predictions for %d queries", tg.name, tg.path, len(got), len(qs))
	}
	for i, q := range qs {
		p := dt.whole.Predict(q)
		if want := (predictResponse{Measure: p.Label, OK: p.Covered, Fallback: p.Fallback}); got[i] != want {
			t.Errorf("%s %s: query %d answered %+v, whole model %+v", tg.name, tg.path, i, got[i], want)
		}
	}
}
