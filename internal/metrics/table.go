package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table holds experiment results as rows of typed Cells and renders them
// four ways: aligned ASCII (for terminals), CSV (for plotting), markdown (for
// the EXPERIMENTS.md log), and versioned JSON (for machine consumers — dashboards,
// regression gates, co-simulation tooling). Each experiment builds its rows
// with the Cell constructors so it keeps exact control of the printed
// precision while the underlying numeric values and units stay addressable.
type Table struct {
	Title   string
	Columns []string
	rows    [][]Cell
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddCells appends a row of typed cells. Short rows are padded with empty
// string cells; long rows panic since they indicate a bug in the experiment
// harness.
func (t *Table) AddCells(cells ...Cell) {
	if len(cells) > len(t.Columns) {
		panic(fmt.Sprintf("metrics: table %q: row has %d cells, table has %d columns",
			t.Title, len(cells), len(t.Columns)))
	}
	row := make([]Cell, len(t.Columns))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRow appends a row of pre-formatted string cells. Short rows are padded
// with empty cells; long rows panic since they indicate a bug in the
// experiment harness.
func (t *Table) AddRow(cells ...string) {
	row := make([]Cell, 0, len(cells))
	for _, c := range cells {
		row = append(row, String(c))
	}
	t.AddCells(row...)
}

// Note attaches a footnote rendered under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the rendered ASCII form of the cell at (row, col); it panics
// on out-of-range indices. Use At for the typed cell.
func (t *Table) Cell(row, col int) string { return t.rows[row][col].Render() }

// At returns the typed cell at (row, col); it panics on out-of-range
// indices.
func (t *Table) At(row, col int) Cell { return t.rows[row][col] }

// Notes returns the attached footnotes.
func (t *Table) Notes() []string { return append([]string(nil), t.notes...) }

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	rendered := make([][]string, len(t.rows))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for r, row := range t.rows {
		rendered[r] = make([]string, len(row))
		for i, cell := range row {
			s := cell.Render()
			rendered[r][i] = s
			if len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	total := 0
	for _, wd := range widths {
		total += wd + 3
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n%s\n", t.Title, strings.Repeat("=", min(total, 100))); err != nil {
			return err
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
			if i != len(cells)-1 {
				b.WriteString(" | ")
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range rendered {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as RFC-4180-ish CSV (cells containing commas or
// quotes are quoted). Cells render exactly as in the ASCII form.
func (t *Table) WriteCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = c.Render()
		}
		if err := writeRow(cells); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders the table as a GitHub-flavored markdown section: the
// title as a heading, then a pipe table, then the notes in italics. Cells
// render exactly as in the ASCII form.
func (t *Table) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	writeRow := func(cell func(col int) string) {
		for i := range t.Columns {
			b.WriteString("| " + strings.ReplaceAll(cell(i), "|", "\\|") + " ")
		}
		b.WriteString("|\n")
	}
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	writeRow(func(i int) string { return t.Columns[i] })
	writeRow(func(int) string { return "---" })
	for _, row := range t.rows {
		writeRow(func(i int) string { return row[i].Render() })
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "\n*note: %s*\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TableFormatVersion guards the JSON table format against schema drift:
// decoders reject documents written for another version instead of silently
// zero-filling. Bump it whenever Cell or the table envelope changes shape.
const TableFormatVersion = 1

// tableJSON is the versioned wire form of a Table. It carries the typed
// cells verbatim, so a decoded table renders byte-identically and its
// numeric values and units survive the round trip (the simcache disk layer
// persists results through exactly this codec path).
type tableJSON struct {
	Version int      `json:"version"`
	Title   string   `json:"title"`
	Columns []string `json:"columns"`
	Rows    [][]Cell `json:"rows"`
	Notes   []string `json:"notes,omitempty"`
}

// MarshalJSON encodes the table in the versioned format.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{
		Version: TableFormatVersion,
		Title:   t.Title,
		Columns: t.Columns,
		Rows:    t.rows,
		Notes:   t.notes,
	})
}

// UnmarshalJSON decodes a table written by MarshalJSON, rejecting documents
// of any other format version and rows that do not match the column count.
func (t *Table) UnmarshalJSON(data []byte) error {
	var doc tableJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if doc.Version != TableFormatVersion {
		return fmt.Errorf("metrics: table format version %d, want %d", doc.Version, TableFormatVersion)
	}
	for i, row := range doc.Rows {
		if len(row) != len(doc.Columns) {
			return fmt.Errorf("metrics: table %q: row %d has %d cells, table has %d columns",
				doc.Title, i, len(row), len(doc.Columns))
		}
	}
	t.Title = doc.Title
	t.Columns = doc.Columns
	t.rows = doc.Rows
	t.notes = doc.Notes
	return nil
}

// WriteJSON renders the table as indented versioned JSON.
func (t *Table) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// String renders the ASCII form; it satisfies fmt.Stringer for logging.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.WriteASCII(&b)
	return b.String()
}
