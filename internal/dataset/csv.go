package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atomicio"
)

// kindsPrefix marks the schema row WriteCSV emits below the header. A data
// cell in the first column that could be mistaken for it is escaped with
// one extra '#' on write and unescaped on read (see escapeSentinel).
const kindsPrefix = "#kinds:"

// WriteCSV encodes the table as CSV. The first header row carries column
// names, the second carries column kinds ("#kinds:" prefix in first cell)
// so that ReadCSV can reconstruct the schema losslessly. First-column data
// cells that collide with the sentinel ("#kinds:...", or an already
// escaped "##kinds:...") gain one leading '#' so the round trip is
// unambiguous.
func WriteCSV(w io.Writer, t *Table) error {
	cw := csv.NewWriter(w)
	schema := t.Schema()
	if err := cw.Write(schema.Names()); err != nil {
		return fmt.Errorf("dataset: write csv header: %w", err)
	}
	kinds := make([]string, len(schema))
	for i, f := range schema {
		kinds[i] = f.Kind.String()
	}
	if len(kinds) > 0 {
		kinds[0] = kindsPrefix + kinds[0]
	}
	if err := cw.Write(kinds); err != nil {
		return fmt.Errorf("dataset: write csv kinds: %w", err)
	}
	row := make([]string, len(schema))
	for i := 0; i < t.NumRows(); i++ {
		for j := range schema {
			row[j] = t.Cell(i, j).String()
		}
		if len(row) > 0 {
			row[0] = escapeSentinel(row[0])
		}
		if len(row) == 1 && row[0] == "" {
			// encoding/csv writes a lone empty field as a blank line,
			// which its reader skips; quote it so the row survives.
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return fmt.Errorf("dataset: write csv row %d: %w", i, err)
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write csv row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// hasSentinelShape reports whether the cell is "#kinds:..." behind zero or
// more additional leading '#' (the escape alphabet).
func hasSentinelShape(cell string) bool {
	return strings.HasPrefix(strings.TrimLeft(cell, "#"), "kinds:") && strings.HasPrefix(cell, "#")
}

// escapeSentinel protects a first-column data cell from being read back as
// the kinds row by prepending one '#'; unescapeSentinel strips it again.
func escapeSentinel(cell string) string {
	if hasSentinelShape(cell) {
		return "#" + cell
	}
	return cell
}

func unescapeSentinel(cell string) string {
	if hasSentinelShape(cell) && strings.HasPrefix(cell, "##") {
		return cell[1:]
	}
	return cell
}

// ReadCSV decodes a table written by WriteCSV. The name parameter becomes
// the table name. The second row is consumed as the schema row only when it
// carries the "#kinds:" sentinel in its first cell, matches the header
// width, and every field parses as a column kind; otherwise it is ordinary
// data — a schema-less CSV whose first data cell legitimately begins with
// "#kinds:" is no longer swallowed (or rejected) as a kinds row. Without a
// schema row all columns are treated as strings.
func ReadCSV(r io.Reader, name string) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataset: read csv: empty input")
	}
	header := records[0]
	body := records[1:]
	schema := make(Schema, len(header))
	for i, h := range header {
		// An empty column name cannot survive the write→read round trip
		// (encoding/csv emits a lone empty field as a blank line, which the
		// reader then skips), so treat it as a malformed header up front.
		if h == "" {
			return nil, fmt.Errorf("dataset: read csv: empty column name at header position %d", i)
		}
		schema[i] = Field{Name: h, Kind: KindString}
	}
	if kinds, ok := parseKindsRow(body, header); ok {
		body = body[1:]
		for i, k := range kinds {
			schema[i].Kind = k
		}
	}
	b := NewBuilder(name, schema)
	vals := make([]Value, len(schema))
	for ri, rec := range body {
		if len(rec) != len(schema) {
			return nil, fmt.Errorf("dataset: read csv: row %d has %d fields, want %d", ri, len(rec), len(schema))
		}
		for j, cell := range rec {
			if j == 0 {
				cell = unescapeSentinel(cell)
			}
			v, err := ParseValue(schema[j].Kind, cell)
			if err != nil {
				return nil, fmt.Errorf("dataset: read csv: row %d col %q: %w", ri, schema[j].Name, err)
			}
			vals[j] = v
		}
		b.Append(vals...)
	}
	return b.Build()
}

// parseKindsRow decides whether the first body row is the schema row and,
// if so, returns the parsed kinds. The row qualifies only when all three
// hold: its first cell starts with exactly the "#kinds:" sentinel (a
// doubled "##kinds:" is an escaped data cell), its width matches the
// header, and every field parses as a kind.
func parseKindsRow(body [][]string, header []string) ([]Kind, bool) {
	if len(body) == 0 || len(body[0]) == 0 {
		return nil, false
	}
	first := body[0][0]
	if !strings.HasPrefix(first, kindsPrefix) {
		return nil, false
	}
	if len(body[0]) != len(header) {
		return nil, false
	}
	kinds := make([]Kind, len(body[0]))
	for i, ks := range body[0] {
		if i == 0 {
			ks = strings.TrimPrefix(ks, kindsPrefix)
		}
		k, err := ParseKind(ks)
		if err != nil {
			return nil, false
		}
		kinds[i] = k
	}
	return kinds, true
}

// SaveCSV writes the table to a file path. The write is atomic: content
// goes to a temp file in the destination directory and is fsynced and
// renamed into place, so a crash or write error mid-save never leaves a
// truncated dataset behind (see internal/atomicio).
func SaveCSV(path string, t *Table) error {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return WriteCSV(w, t)
	})
	if err != nil {
		return fmt.Errorf("dataset: save csv: %w", err)
	}
	return nil
}

// LoadCSV reads a table from a file path; the base name (without extension)
// becomes the table name unless name is non-empty.
func LoadCSV(path, name string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: load csv: %w", err)
	}
	defer f.Close()
	if name == "" {
		name = strings.TrimSuffix(baseName(path), ".csv")
	}
	return ReadCSV(f, name)
}

// baseName returns the final element of the path. The original
// implementation split on '/' only, so platform-foreign separators and
// trailing slashes produced wrong table names; filepath.Base handles both.
func baseName(path string) string {
	return filepath.Base(path)
}
