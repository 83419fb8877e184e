package snapshot

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/session"
)

// readOne reads data as one context with the reader, as the serving
// layer's envelopes do.
func readOne(data []byte, maxNodes int) (c *session.Context, ok bool) {
	ok = ReadBody(data, maxNodes, func(r *Reader) (ok bool) {
		c, _, ok = r.Context()
		return ok
	})
	return c, ok
}

// reference decodes data the way a declined body is decoded:
// json.Unmarshal, CheckContext, then DecodeContext.
func reference(data []byte, maxNodes int) (*session.Context, error) {
	var wc *WireContext
	if err := json.Unmarshal(data, &wc); err != nil {
		return nil, err
	}
	if err := CheckContext(wc, maxNodes); err != nil {
		return nil, err
	}
	return DecodeContext(wc, nil)
}

// encoded is a context's canonical JSON, which pins its ids, steps,
// actions, histogram keys and weight bits.
func encoded(t testing.TB, c *session.Context) []byte {
	t.Helper()
	b, err := json.Marshal(EncodeContext(c, nil))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// histograms lists the histograms of c's displays, node by node: a
// repeated key, which the canonical JSON folds away, shows here.
func histograms(c *session.Context) [][]engine.Hist {
	var out [][]engine.Hist
	for _, n := range c.Nodes() {
		var hs []engine.Hist
		if n.Display != nil {
			p := n.Display.GetProfile()
			for i := range p.Columns {
				hs = append(hs, p.TopFreq(i))
			}
		}
		out = append(out, hs)
	}
	return out
}

// sameContext reports whether a and b encode to the same canonical JSON
// and hold the same histograms.
func sameContext(t testing.TB, a, b *session.Context) bool {
	return bytes.Equal(encoded(t, a), encoded(t, b)) && reflect.DeepEqual(histograms(a), histograms(b))
}

// canonicalForms returns c's canonical JSON written compact (with
// encoding/json's HTML escapes), indented, without HTML escapes, and
// with every object's keys reordered.
func canonicalForms(t testing.TB, c *session.Context) map[string][]byte {
	t.Helper()
	compact := encoded(t, c)
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "  "); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	enc := json.NewEncoder(&plain)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(EncodeContext(c, nil)); err != nil {
		t.Fatal(err)
	}
	// Through a map, every object's keys come out sorted by name, not
	// in struct order; float64 keeps every number's bits.
	var tree any
	if err := json.Unmarshal(compact, &tree); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(tree)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"compact": compact, "indented": indented.Bytes(), "unescaped HTML": plain.Bytes(), "reordered": reordered}
}

// readerContexts are contexts whose canonical forms the reader must
// accept: filter actions (whose ">" encoding/json escapes), group
// actions, histograms folded into the other bucket (a "\u0000" escape),
// and strings beyond ASCII.
func readerContexts() []*session.Context {
	grouped := miniContext("g", 2, miniDisplay(12, 1), miniDisplay(3, 2))
	grouped.Root.Children[0].Action = groupAction()
	return []*session.Context{
		miniContext("q", 3, miniDisplay(40, 2), miniDisplay(9, 3)),
		miniContext("s<1>& é😀", 1, miniDisplay(50, 0), miniDisplay(7, 1)),
		grouped,
		{SessionID: "root-only", Root: &session.CtxNode{Step: 4}},
		{},
	}
}

// TestReaderMatchesReference: every canonical form of each context reads
// to the context the encoding/json reference decodes, to the bit.
func TestReaderMatchesReference(t *testing.T) {
	for _, c := range readerContexts() {
		want := encoded(t, c)
		for form, data := range canonicalForms(t, c) {
			got, ok := readOne(data, readCap)
			if !ok {
				t.Fatalf("%s form declined: %s", form, data)
			}
			ref, err := reference(data, readCap)
			if err != nil {
				t.Fatalf("%s form: reference: %v", form, err)
			}
			if !sameContext(t, got, ref) || !bytes.Equal(encoded(t, got), want) {
				t.Fatalf("%s form:\nreader    %s\nreference %s\nencoded   %s", form, encoded(t, got), encoded(t, ref), want)
			}
		}
	}
}

// readCap is the node cap the reader tests and the fuzz read under.
const readCap = 8

// declineSeeds holds one input per class the reader leaves to the
// reference decode, by class.
func declineSeeds(t testing.TB) map[string]string {
	good := string(encoded(t, readerContexts()[0]))
	wide := make([]string, maxTopFreqKeys+1)
	for i := range wide {
		wide[i] = `"v` + strings.Repeat("x", i) + `":0.01`
	}
	return map[string]string{
		"unknown key":            `{"session_id":"q","x":1}`,
		"key in another case":    `{"Session_id":"q"}`,
		"escaped key":            `{"session\u005fid":"q"}`,
		"repeated key":           `{"t":1,"t":2}`,
		"repeated object key":    `{"root":{"step":1},"root":{"step":2}}`,
		"null context":           `null`,
		"null root":              `{"root":null}`,
		"null string":            `{"session_id":null}`,
		"null child":             `{"root":{"step":1,"children":[null]}}`,
		"null histogram":         `{"root":{"display":{"columns":[{"name":"c","top_freq":null}]}}}`,
		"fractional int":         `{"t":1.5}`,
		"exponent int":           `{"t":1e2}`,
		"out-of-range int":       `{"t":99999999999999999999}`,
		"out-of-range float":     `{"root":{"display":{"columns":[{"name":"c","top_freq":{"a":1e400}}]}}}`,
		"leading zero":           `{"t":01}`,
		"string for int":         `{"t":"1"}`,
		"invalid UTF-8":          "{\"session_id\":\"q\xff\"}",
		"lone surrogate":         `{"session_id":"\ud800"}`,
		"lone low surrogate":     `{"session_id":"\udc00x"}`,
		"raw control character":  "{\"session_id\":\"a\tb\"}",
		"26-key histogram":       `{"root":{"display":{"columns":[{"name":"c","top_freq":{` + strings.Join(wide, ",") + `}}]}}}`,
		"repeated histogram key": `{"root":{"display":{"columns":[{"name":"c","top_freq":{"a":0.5,"b":0.25,"a":0.25}}]}}}`,
		"unknown action type":    `{"root":{"step":1,"action":{"type":"nope"}}}`,
		"empty action":           `{"root":{"step":1,"action":{}}}`,
		"display ref":            `{"root":{"step":1,"ref":1}}`,
		"zero display ref":       `{"root":{"step":1,"ref":0}}`,
		"nine nodes":             `{"root":{"children":[{},{},{},{},{},{},{},{}]}}`,
		"trailing garbage":       good + `x`,
		"second value":           good + ` {}`,
		"truncated":              good[:len(good)-1],
		"array":                  `[` + good + `]`,
	}
}

// TestReaderDeclines: the reader declines one input of each class, and
// reads a context of exactly the cap's nodes.
func TestReaderDeclines(t *testing.T) {
	for name, in := range declineSeeds(t) {
		if c, ok := readOne([]byte(in), readCap); ok {
			t.Errorf("%s: reader accepted %s as %s", name, in, encoded(t, c))
		}
	}
	if _, ok := readOne([]byte(`{"root":{"children":[{},{},{},{},{},{},{}]}}`), readCap); !ok {
		t.Errorf("an %d-node context was declined under a cap of %d", readCap, readCap)
	}
}

// TestReaderKeysMatchTags: the reader's key lists are the JSON names of
// the wire types' fields, a node's ref aside.
func TestReaderKeysMatchTags(t *testing.T) {
	for _, tc := range []struct {
		v    any
		keys []string
	}{
		{WireContext{}, contextKeys},
		{WireNode{}, append(append([]string(nil), nodeKeys...), "ref")},
		{session.LogAction{}, actionKeys},
		{session.LogPredicate{}, predicateKeys},
		{WireDisplay{}, displayKeys},
		{WireColumn{}, columnKeys},
	} {
		var tags []string
		rt := reflect.TypeOf(tc.v)
		for i := 0; i < rt.NumField(); i++ {
			tags = append(tags, strings.Split(rt.Field(i).Tag.Get("json"), ",")[0])
		}
		want := slices.Clone(tc.keys)
		slices.Sort(tags)
		slices.Sort(want)
		if !slices.Equal(tags, want) {
			t.Errorf("%s: tags %q, reader keys %q", rt.Name(), tags, want)
		}
	}
}

// TestReaderSharesDisplayStrings: a decoded display's strings are copied
// out of the body, and its histograms hold exactly their keys.
func TestReaderSharesDisplayStrings(t *testing.T) {
	c := readerContexts()[0]
	data := encoded(t, c)
	got, ok := readOne(data, readCap)
	if !ok {
		t.Fatal("declined")
	}
	for i := range data {
		data[i] = ' '
	}
	if g, w := encoded(t, got), encoded(t, c); !bytes.Equal(g, w) {
		t.Fatalf("context changed with its body:\n%s\n%s", g, w)
	}
	p := got.Root.Display.GetProfile()
	for i := range p.Columns {
		if top := p.TopFreq(i); cap(top.Keys) != len(top.Keys) || cap(top.Weights) != len(top.Weights) {
			t.Fatalf("column %d histogram has slack: %d/%d keys", i, len(top.Keys), cap(top.Keys))
		}
	}
}

// TestReadBodyConcurrent: goroutines sharing the pooled readers each
// read their own contexts to the bit.
func TestReadBodyConcurrent(t *testing.T) {
	cs := readerContexts()
	data := make([][]byte, len(cs))
	for i, c := range cs {
		data[i] = encoded(t, c)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(cs)
				got, ok := readOne(data[k], readCap)
				if !ok {
					t.Errorf("goroutine %d: context %d declined", g, k)
					return
				}
				if b, err := json.Marshal(EncodeContext(got, nil)); err != nil || !bytes.Equal(b, data[k]) ||
					!reflect.DeepEqual(histograms(got), histograms(cs[k])) {
					t.Errorf("goroutine %d: context %d read as %s", g, k, b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
