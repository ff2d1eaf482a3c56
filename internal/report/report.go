// Package report renders experiment results as aligned ASCII tables and
// CSV, the two output forms of the benchmark harness (one row/series per
// paper table or figure element). WriteFile puts any rendering in a
// file.
package report

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// Table is a titled grid of cells.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row. Short rows are padded with empty cells; long
// rows extend the column set with empty headers.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.Columns) {
		cells = append(cells, "")
	}
	for len(t.Columns) < len(cells) {
		t.Columns = append(t.Columns, "")
	}
	t.Rows = append(t.Rows, cells)
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "# %s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (title omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Nanos formats a nanosecond duration with an adaptive unit, matching
// how the paper quotes costs (150ns, 775us, 133ms, 5544s).
func Nanos(ns int64) string {
	switch {
	case ns < 0:
		return fmt.Sprintf("-%s", Nanos(-ns))
	case ns < 1000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1000*1000:
		return trimUnit(float64(ns)/1000, "us")
	case ns < 1000*1000*1000:
		return trimUnit(float64(ns)/1e6, "ms")
	default:
		return trimUnit(float64(ns)/1e9, "s")
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.3f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s + unit
}

// Pct formats a percentage with precision adapted to its magnitude, so
// both 0.003% and 850% rows read naturally.
func Pct(v float64) string {
	switch {
	case v != 0 && v < 0.01 && v > -0.01:
		return fmt.Sprintf("%.4f%%", v)
	case v < 1 && v > -1:
		return fmt.Sprintf("%.3f%%", v)
	case v < 10 && v > -10:
		return fmt.Sprintf("%.2f%%", v)
	default:
		return fmt.Sprintf("%.1f%%", v)
	}
}

// Bar renders a proportional ASCII bar of at most width characters for
// value within [0, max]; used for quick visual figure checks.
func Bar(value, max float64, width int) string {
	if max <= 0 || value <= 0 || width <= 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	if n == 0 {
		n = 1
	}
	return strings.Repeat("#", n)
}

// WriteFile creates path and fills it with write. A failed close is an
// error like a failed write: the file may not hold what write produced.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
