package dataset

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Field describes one column of a Schema.
type Field struct {
	Name string
	Kind Kind
}

// Schema is an ordered list of named, typed columns.
type Schema []Field

// Index returns the position of the named column, or -1 if absent.
func (s Schema) Index(name string) int {
	for i, f := range s {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in schema order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// Equal reports whether two schemas have identical fields in order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Column is a typed vertical slice of a table. Exactly one of the payload
// slices is populated, matching Kind; its length equals the table's row count.
//
// A column built by a Builder or selected from one is also dictionary
// encoded (see Dict and IDs); the two are set when the column is made
// and never change.
type Column struct {
	Name string
	Kind Kind

	Strs   []string
	Ints   []int64
	Flts   []float64
	TimeNS []int64

	dict []string
	ids  []uint32
}

// Dict returns the column's dictionary: the distinct Value.String() forms
// of the cells Builder.Build encoded, sorted by bytes, so ids order
// exactly as their strings do. A column Table.Select made
// shares its source's dictionary, which may hold strings none of its own
// cells has. Callers must not modify the slice.
func (c *Column) Dict() []string { return c.dict }

// IDs returns each row's dictionary id: Dict()[IDs()[i]] is
// Value(i).String(). Callers must not modify the slice.
func (c *Column) IDs() []uint32 { return c.ids }

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	switch c.Kind {
	case KindString:
		return len(c.Strs)
	case KindInt:
		return len(c.Ints)
	case KindFloat:
		return len(c.Flts)
	case KindTime:
		return len(c.TimeNS)
	default:
		return 0
	}
}

// Value returns the cell at row i as a dynamically typed Value.
func (c *Column) Value(i int) Value {
	switch c.Kind {
	case KindString:
		return Value{Kind: KindString, Str: c.Strs[i]}
	case KindInt:
		return Value{Kind: KindInt, Int: c.Ints[i]}
	case KindFloat:
		return Value{Kind: KindFloat, Flt: c.Flts[i]}
	case KindTime:
		return Value{Kind: KindTime, TimeNS: c.TimeNS[i]}
	default:
		return Value{}
	}
}

// Table is an immutable, columnar relational table.
type Table struct {
	name string
	cols []*Column
	rows int
}

// Name returns the table's name (e.g. the dataset it came from).
func (t *Table) Name() string { return t.name }

// NumRows returns the number of rows.
func (t *Table) NumRows() int { return t.rows }

// NumCols returns the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Schema returns the table's schema.
func (t *Table) Schema() Schema {
	s := make(Schema, len(t.cols))
	for i, c := range t.cols {
		s[i] = Field{Name: c.Name, Kind: c.Kind}
	}
	return s
}

// Column returns the i-th column.
func (t *Table) Column(i int) *Column { return t.cols[i] }

// ColumnByName returns the named column, or nil if absent.
func (t *Table) ColumnByName(name string) *Column {
	for _, c := range t.cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Cell returns the value at (row, col). Out-of-range indices panic, like
// slice indexing; CellAt is the checked counterpart.
func (t *Table) Cell(row, col int) Value { return t.cols[col].Value(row) }

// CellAt is the bounds-checked Cell: it reports ok=false instead of
// panicking when row or col is out of range, so callers iterating
// untrusted coordinates (replayed logs, fuzzed queries) can skip bad
// cells without a recover.
func (t *Table) CellAt(row, col int) (v Value, ok bool) {
	if row < 0 || row >= t.rows || col < 0 || col >= len(t.cols) {
		return Value{}, false
	}
	return t.cols[col].Value(row), true
}

// Row materializes row i as a slice of Values in schema order.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.Value(i)
	}
	return out
}

// SelectChecked is the error-returning Select: an out-of-range row index
// yields an error identifying the offending index rather than a panic,
// for callers whose row lists come from outside the library (query
// replays, reconstructed logs).
func (t *Table) SelectChecked(rows []int) (*Table, error) {
	for i, r := range rows {
		if r < 0 || r >= t.rows {
			return nil, fmt.Errorf("dataset: select on %q: row index %d (position %d) out of range [0,%d)",
				t.name, r, i, t.rows)
		}
	}
	return t.Select(rows), nil
}

// Select builds a new table containing the given rows (in the given order).
// Row indices must be within range (SelectChecked validates them);
// duplicates are allowed.
func (t *Table) Select(rows []int) *Table {
	cols := make([]*Column, len(t.cols))
	for j, c := range t.cols {
		nc := &Column{Name: c.Name, Kind: c.Kind, dict: c.dict, ids: make([]uint32, len(rows))}
		for i, r := range rows {
			nc.ids[i] = c.ids[r]
		}
		switch c.Kind {
		case KindString:
			nc.Strs = make([]string, len(rows))
			for i, r := range rows {
				nc.Strs[i] = c.Strs[r]
			}
		case KindInt:
			nc.Ints = make([]int64, len(rows))
			for i, r := range rows {
				nc.Ints[i] = c.Ints[r]
			}
		case KindFloat:
			nc.Flts = make([]float64, len(rows))
			for i, r := range rows {
				nc.Flts[i] = c.Flts[r]
			}
		case KindTime:
			nc.TimeNS = make([]int64, len(rows))
			for i, r := range rows {
				nc.TimeNS[i] = c.TimeNS[r]
			}
		}
		cols[j] = nc
	}
	return &Table{name: t.name, cols: cols, rows: len(rows)}
}

// DistinctValues returns the distinct values of a column in first-seen order,
// capped at limit (limit <= 0 means no cap).
func (t *Table) DistinctValues(col string, limit int) []Value {
	c := t.ColumnByName(col)
	if c == nil {
		return nil
	}
	seen := make(map[Value]struct{})
	var out []Value
	for i := 0; i < c.Len(); i++ {
		v := c.Value(i)
		if _, ok := seen[v]; ok {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// ValueCounts returns the frequency of each distinct value in a column,
// sorted by descending count with ties broken by value order. It is the
// basic histogram primitive used by the interestingness measures.
func (t *Table) ValueCounts(col string) []ValueCount {
	c := t.ColumnByName(col)
	if c == nil {
		return nil
	}
	counts := make(map[Value]int)
	for i := 0; i < c.Len(); i++ {
		counts[c.Value(i)]++
	}
	out := make([]ValueCount, 0, len(counts))
	for v, n := range counts {
		out = append(out, ValueCount{Value: v, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Value.Compare(out[j].Value) < 0
	})
	return out
}

// ValueCount pairs a distinct value with its occurrence count.
type ValueCount struct {
	Value Value
	Count int
}

// String renders a compact, aligned preview of the table (up to 12 rows),
// useful in examples and debugging.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%d rows)\n", t.name, t.rows)
	names := t.Schema().Names()
	b.WriteString(strings.Join(names, " | "))
	b.WriteByte('\n')
	n := t.rows
	if n > 12 {
		n = 12
	}
	for i := 0; i < n; i++ {
		parts := make([]string, len(t.cols))
		for j, c := range t.cols {
			parts[j] = c.Value(i).String()
		}
		b.WriteString(strings.Join(parts, " | "))
		b.WriteByte('\n')
	}
	if t.rows > n {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.rows-n)
	}
	return b.String()
}

// Builder incrementally assembles a Table row by row.
type Builder struct {
	name   string
	schema Schema
	cols   []*Column
	rows   int
	err    error
}

// NewBuilder creates a builder for a table with the given name and schema.
func NewBuilder(name string, schema Schema) *Builder {
	b := &Builder{name: name, schema: schema}
	b.cols = make([]*Column, len(schema))
	for i, f := range schema {
		b.cols[i] = &Column{Name: f.Name, Kind: f.Kind}
	}
	return b
}

// Append adds one row. The number and kinds of values must match the schema;
// a mismatch is recorded and reported by Build.
func (b *Builder) Append(vals ...Value) {
	if b.err != nil {
		return
	}
	if len(vals) != len(b.schema) {
		b.err = fmt.Errorf("dataset: builder %q: row has %d values, schema has %d", b.name, len(vals), len(b.schema))
		return
	}
	for i, v := range vals {
		c := b.cols[i]
		if v.Kind != c.Kind {
			b.err = fmt.Errorf("dataset: builder %q: column %q expects %v, got %v", b.name, c.Name, c.Kind, v.Kind)
			return
		}
		switch c.Kind {
		case KindString:
			c.Strs = append(c.Strs, v.Str)
		case KindInt:
			c.Ints = append(c.Ints, v.Int)
		case KindFloat:
			c.Flts = append(c.Flts, v.Flt)
		case KindTime:
			c.TimeNS = append(c.TimeNS, v.TimeNS)
		}
	}
	b.rows++
}

// Build finalizes the table, dictionary encoding each column. It returns
// an error if any Append failed.
func (b *Builder) Build() (*Table, error) {
	if b.err != nil {
		return nil, b.err
	}
	for _, c := range b.cols {
		c.dict, c.ids = encode(c)
	}
	return &Table{name: b.name, cols: b.cols, rows: b.rows}, nil
}

// encode dictionary encodes c: it numbers the distinct payloads in
// first-seen order, formats each one once, then renumbers them by their
// sorted strings, merging payloads that format alike (NaNs of different
// bits).
func encode(c *Column) (dict []string, ids []uint32) {
	var strs []string
	switch c.Kind {
	case KindString:
		ids, strs = firstSeen(c.Strs, func(s string) string { return s })
	case KindInt:
		ids, strs = firstSeen(c.Ints, func(i int64) string { return I(i).String() })
	case KindFloat:
		bits := make([]uint64, len(c.Flts))
		for i, f := range c.Flts {
			bits[i] = math.Float64bits(f)
		}
		ids, strs = firstSeen(bits, func(u uint64) string { return F(math.Float64frombits(u)).String() })
	case KindTime:
		ids, strs = firstSeen(c.TimeNS, func(ns int64) string { return Value{Kind: KindTime, TimeNS: ns}.String() })
	}
	order := make([]uint32, len(strs))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(x, y uint32) int { return strings.Compare(strs[x], strs[y]) })
	remap := make([]uint32, len(strs))
	dict = make([]string, 0, len(strs))
	for _, code := range order {
		if s := strs[code]; len(dict) == 0 || dict[len(dict)-1] != s {
			dict = append(dict, s)
		}
		remap[code] = uint32(len(dict) - 1)
	}
	for i, code := range ids {
		ids[i] = remap[code]
	}
	return dict, ids
}

// firstSeen numbers the distinct values of keys in first-seen order and
// returns each key's number and each number's string form.
func firstSeen[K comparable](keys []K, format func(K) string) (codes []uint32, strs []string) {
	codes = make([]uint32, len(keys))
	seen := make(map[K]uint32)
	for i, k := range keys {
		code, ok := seen[k]
		if !ok {
			code = uint32(len(strs))
			seen[k] = code
			strs = append(strs, format(k))
		}
		codes[i] = code
	}
	return codes, strs
}

// MustBuild is Build that panics on error; intended for tests and
// programmatically generated data where the schema is known correct.
func (b *Builder) MustBuild() *Table {
	t, err := b.Build()
	if err != nil {
		panic(err)
	}
	return t
}
