package snapshot

import (
	"bytes"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/engine"
	"repro/internal/session"
)

// Reader reads request bodies in one pass. A request context arrives as
// the JSON json.Marshal writes for EncodeContext(c, nil), and Context
// reads that form straight into a *session.Context: no reflection, no
// WireContext in between, no map per column histogram. The serving
// layer walks its request envelopes with Object, Array, Int and Float.
//
// The reader accepts the canonical form in any key order and with any
// whitespace and string escapes, and declines everything else: it
// returns not-ok, never an error. A caller hands a declined body to
// encoding/json, json.Unmarshal then CheckContext then DecodeContext,
// which stays the decoder of valid non-canonical JSON and the author of
// every error message. Whatever the reader accepts, that reference
// accepts too and decodes to the same context (FuzzDecodeWireContext).
// Omitted keys take Go's zero value, as in encoding/json. The reader
// declines:
//   - an unknown key, or a known one in another case or written with
//     escapes, and a repeated key (encoding/json merges a repeated
//     object into the earlier one);
//   - null anywhere;
//   - a non-integer or out-of-range literal for an int field, and a
//     number strconv.ParseFloat refuses;
//   - invalid UTF-8 or a lone surrogate in a string (encoding/json
//     substitutes U+FFFD);
//   - a histogram of more than maxTopFreqKeys keys or with a repeated
//     key, an action session.DecodeAction refuses, and any display ref;
//   - a context of more than the node cap's nodes, counted while
//     reading, so recursion stays within the cap;
//   - anything but whitespace after the body's value.
//
// Strings the contexts keep are copied out of the body: a display's
// column names, group and value columns and histogram keys as one
// string per display.
type Reader struct {
	b        []byte
	i        int
	maxNodes int
	// nodes counts the nodes of the context being read.
	nodes int

	// The display being read: its strings unescaped into text, spans
	// of text for its column names and histogram keys, and the pairs
	// whose keys those spans become.
	text  []byte
	names []span
	keys  []span
	pairScratch
}

// span is the text[from:to] of one string of a display.
type span struct{ from, to int }

// The keys of each wire object, as WireContext, WireNode, WireDisplay,
// WireColumn and session.LogAction tag them (TestReaderKeysMatchTags).
// A node's ref is not among them: a self-contained context has none.
var (
	contextKeys   = []string{"session_id", "t", "n", "size", "root"}
	nodeKeys      = []string{"step", "action", "display", "children"}
	actionKeys    = []string{"type", "predicates", "group_by", "agg", "agg_column", "sort_column", "k", "ascending"}
	predicateKeys = []string{"column", "op", "kind", "value"}
	displayKeys   = []string{"rows", "aggregated", "group_column", "value_column", "columns"}
	columnKeys    = []string{"name", "top_freq"}
)

// readers keeps Readers, and the display scratch they have grown, for
// reuse across requests.
var readers = sync.Pool{New: func() any { return new(Reader) }}

// ReadBody reads body with a pooled Reader: value reads the one value it
// holds, and only whitespace may follow. Contexts with more than
// maxNodes nodes are declined. The Reader must not be kept past value's
// return.
func ReadBody(body []byte, maxNodes int, value func(*Reader) bool) bool {
	r := readers.Get().(*Reader)
	r.b, r.i, r.maxNodes = body, 0, maxNodes
	ok := value(r) && r.end()
	// Drop the references to the body and the last display's strings
	// before the Reader waits in the pool.
	r.b = nil
	clear(r.pairs[:cap(r.pairs)])
	readers.Put(r)
	return ok
}

// end reports whether only whitespace remains.
func (r *Reader) end() bool {
	r.skipSpace()
	return r.i == len(r.b)
}

// Object reads an object whose keys are all among keys (at most 64),
// none twice, calling field with each key after its colon; field reads
// the key's value.
func (r *Reader) Object(keys []string, field func(key string) bool) bool {
	var seen uint64
	return r.object(func() bool {
		k, ok := r.fieldName(keys)
		if !ok || seen&(1<<k) != 0 || !r.consume(':') {
			return false
		}
		seen |= 1 << k
		return field(keys[k])
	})
}

// Array reads an array, calling elem to read each element.
func (r *Reader) Array(elem func() bool) bool { return r.list('[', ']', elem) }

// Int reads a number into an int as encoding/json does: an integer
// literal strconv.ParseInt takes.
func (r *Reader) Int() (int, bool) {
	lit, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseInt(string(lit), 10, 0)
	return int(v), err == nil
}

// Float reads a number into a float64 as encoding/json does, so every
// weight keeps its bits.
func (r *Reader) Float() (float64, bool) {
	lit, ok := r.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	return v, err == nil
}

// Context reads a self-contained wire context and returns it with its
// bytes, a subslice of the body.
func (r *Reader) Context() (*session.Context, []byte, bool) {
	r.skipSpace()
	start := r.i
	r.nodes = 0
	c := &session.Context{}
	ok := r.Object(contextKeys, func(key string) (ok bool) {
		switch key {
		case "session_id":
			c.SessionID, ok = r.string()
		case "t":
			c.T, ok = r.Int()
		case "n":
			c.N, ok = r.Int()
		case "size":
			c.Size, ok = r.Int()
		default:
			c.Root, ok = r.node()
		}
		return ok
	})
	return c, r.b[start:r.i], ok
}

func (r *Reader) node() (*session.CtxNode, bool) {
	if r.nodes++; r.nodes > r.maxNodes {
		return nil, false
	}
	n := &session.CtxNode{}
	ok := r.Object(nodeKeys, func(key string) (ok bool) {
		switch key {
		case "step":
			n.Step, ok = r.Int()
		case "action":
			n.Action, ok = r.action()
		case "display":
			n.Display, ok = r.display()
		default:
			ok = r.Array(func() bool {
				ch, ok := r.node()
				n.Children = append(n.Children, ch)
				return ok
			})
		}
		return ok
	})
	return n, ok
}

func (r *Reader) action() (*engine.Action, bool) {
	var la session.LogAction
	ok := r.Object(actionKeys, func(key string) (ok bool) {
		switch key {
		case "type":
			la.Type, ok = r.string()
		case "predicates":
			ok = r.Array(func() bool {
				var p session.LogPredicate
				ok := r.Object(predicateKeys, func(key string) (ok bool) {
					switch key {
					case "column":
						p.Column, ok = r.string()
					case "op":
						p.Op, ok = r.string()
					case "kind":
						p.Kind, ok = r.string()
					default:
						p.Value, ok = r.string()
					}
					return ok
				})
				la.Predicates = append(la.Predicates, p)
				return ok
			})
		case "group_by":
			la.GroupBy, ok = r.string()
		case "agg":
			la.Agg, ok = r.string()
		case "agg_column":
			la.AggColumn, ok = r.string()
		case "sort_column":
			la.SortColumn, ok = r.string()
		case "k":
			la.K, ok = r.Int()
		default:
			la.Ascending, ok = r.bool()
		}
		return ok
	})
	if !ok {
		return nil, false
	}
	a, err := session.DecodeAction(la)
	return a, err == nil
}

// display reads a display summary into a summary display whose profile
// engine.NewProfile builds from the histograms' key/weight pairs.
func (r *Reader) display() (*engine.Display, bool) {
	r.text, r.names, r.keys = r.text[:0], r.names[:0], r.keys[:0]
	r.reset()
	var (
		rows         int
		aggregated   bool
		group, value span
	)
	ok := r.Object(displayKeys, func(key string) (ok bool) {
		switch key {
		case "rows":
			rows, ok = r.Int()
		case "aggregated":
			aggregated, ok = r.bool()
		case "group_column":
			group, ok = r.str()
		case "value_column":
			value, ok = r.str()
		default:
			ok = r.Array(r.column)
		}
		return ok
	})
	if !ok {
		return nil, false
	}
	text := string(r.text)
	cols := make([]engine.ColumnProfile, len(r.names))
	for i, s := range r.names {
		cols[i].Name = text[s.from:s.to]
	}
	for i, s := range r.keys {
		r.pairs[i].Key = text[s.from:s.to]
	}
	p := r.profile(rows, cols)
	// encoding/json keeps the last weight of a repeated histogram key;
	// the profile's sorted keys show one as a neighbouring pair.
	for i := range cols {
		keys := p.TopFreq(i).Keys
		for j := 1; j < len(keys); j++ {
			if keys[j] == keys[j-1] {
				return nil, false
			}
		}
	}
	return engine.NewSummaryDisplay(rows, aggregated, text[group.from:group.to], text[value.from:value.to], p), true
}

// column reads one display column: its name and its histogram's
// key/weight pairs, at most maxTopFreqKeys of them.
func (r *Reader) column() bool {
	var name span
	start := len(r.keys)
	ok := r.Object(columnKeys, func(key string) (ok bool) {
		if key == "name" {
			name, ok = r.str()
			return ok
		}
		return r.object(func() bool {
			k, ok := r.str()
			if !ok || !r.consume(':') {
				return false
			}
			w, ok := r.Float()
			r.keys = append(r.keys, k)
			r.pairs = append(r.pairs, engine.KeyWeight{Weight: w})
			return ok && len(r.keys)-start <= maxTopFreqKeys
		})
	})
	r.names = append(r.names, name)
	r.counts = append(r.counts, len(r.keys)-start)
	return ok
}

// object reads an object, calling member to read each key, its colon
// and its value.
func (r *Reader) object(member func() bool) bool { return r.list('{', '}', member) }

// list reads the comma-separated items between open and end, calling
// item to read each.
func (r *Reader) list(open, end byte, item func() bool) bool {
	if !r.consume(open) {
		return false
	}
	if r.consume(end) {
		return true
	}
	for item() {
		if !r.consume(',') {
			return r.consume(end)
		}
	}
	return false
}

func (r *Reader) skipSpace() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (r *Reader) consume(c byte) bool {
	r.skipSpace()
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// fieldName reads an object key and returns its index in keys. The key
// must be written exactly as in keys: no escapes, no other case.
func (r *Reader) fieldName(keys []string) (int, bool) {
	if !r.consume('"') {
		return 0, false
	}
	end := bytes.IndexByte(r.b[r.i:], '"')
	if end < 0 {
		return 0, false
	}
	name := r.b[r.i : r.i+end]
	r.i += end + 1
	for k, key := range keys {
		if string(name) == key {
			return k, true
		}
	}
	return 0, false
}

func (r *Reader) bool() (bool, bool) {
	r.skipSpace()
	switch {
	case bytes.HasPrefix(r.b[r.i:], []byte("true")):
		r.i += len("true")
		return true, true
	case bytes.HasPrefix(r.b[r.i:], []byte("false")):
		r.i += len("false")
		return false, true
	}
	return false, false
}

// number reads a number literal as the JSON grammar writes it.
func (r *Reader) number() ([]byte, bool) {
	r.skipSpace()
	b, i := r.b, r.i
	digits := func() bool {
		from := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > from
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[r.i:i]
	r.i = i
	return lit, true
}

// string reads a string into a string of its own.
func (r *Reader) string() (string, bool) {
	mark := len(r.text)
	s, ok := r.str()
	v := string(r.text[s.from:s.to])
	r.text = r.text[:mark]
	return v, ok
}

// str reads a string, appending it unescaped to text, and returns its
// span there.
func (r *Reader) str() (span, bool) {
	if !r.consume('"') {
		return span{}, false
	}
	b, i := r.b, r.i
	from := len(r.text)
	for {
		j := i
		for j < len(b) && b[j] >= ' ' && b[j] < utf8.RuneSelf && b[j] != '"' && b[j] != '\\' {
			j++
		}
		r.text = append(r.text, b[i:j]...)
		if i = j; i >= len(b) {
			return span{}, false
		}
		switch c := b[i]; {
		case c == '"':
			r.i = i + 1
			return span{from, len(r.text)}, true
		case c == '\\':
			if i = r.escape(i); i < 0 {
				return span{}, false
			}
		case c < ' ':
			return span{}, false
		default:
			ru, size := utf8.DecodeRune(b[i:])
			if ru == utf8.RuneError && size == 1 {
				return span{}, false
			}
			r.text = append(r.text, b[i:i+size]...)
			i += size
		}
	}
}

// escape appends the escape sequence at b[i] unescaped to text and
// returns the index after it, or -1 for an invalid sequence or a lone
// surrogate.
func (r *Reader) escape(i int) int {
	b := r.b
	if i+1 >= len(b) {
		return -1
	}
	c := b[i+1]
	switch c {
	case '"', '\\', '/':
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		ru := hex4(b, i+2)
		if ru < 0 {
			return -1
		}
		i += 6
		if utf16.IsSurrogate(ru) {
			if i+1 >= len(b) || b[i] != '\\' || b[i+1] != 'u' {
				return -1
			}
			if ru = utf16.DecodeRune(ru, hex4(b, i+2)); ru == unicode.ReplacementChar {
				return -1
			}
			i += 6
		}
		r.text = utf8.AppendRune(r.text, ru)
		return i
	default:
		return -1
	}
	r.text = append(r.text, c)
	return i + 2
}

// hex4 decodes the four hex digits at b[i:], or returns -1.
func hex4(b []byte, i int) rune {
	if i+4 > len(b) {
		return -1
	}
	var ru rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		ru = ru<<4 | rune(c)
	}
	return ru
}
