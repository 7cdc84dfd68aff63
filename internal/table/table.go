// Package table renders experiment results as aligned ASCII tables, CSV, or
// TSV, so every figure and table of the paper can be regenerated as a
// machine-diffable artifact.
package table

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-ordered table with a title.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// New returns an empty table with the given title and column headers.
func New(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("table: row has %d cells, want %d", len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// MustAddRow is AddRow that panics on arity mismatch (programmer error).
func (t *Table) MustAddRow(cells ...string) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// Fmt formats one float with the table's default precision.
func Fmt(v float64) string { return fmt.Sprintf("%.4g", v) }

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	if len(t.Columns) == 0 {
		return errors.New("table: no columns")
	}
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
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the ASCII form.
func (t *Table) String() string {
	var b strings.Builder
	if err := t.WriteASCII(&b); err != nil {
		return fmt.Sprintf("table error: %v", err)
	}
	return b.String()
}

// WriteCSV renders the table as RFC-4180 CSV (header row first; the title
// is emitted as a comment line).
func (t *Table) WriteCSV(w io.Writer) error {
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
	}
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

// WriteTSV renders tab-separated values without alignment or comments.
func (t *Table) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, "\t")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, "\t")); err != nil {
			return err
		}
	}
	return nil
}

// WriteMarkdown renders a GitHub-flavoured markdown table (the format
// EXPERIMENTS.md uses), with the title as a bold caption line.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if len(t.Columns) == 0 {
		return errors.New("table: no columns")
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	escape := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + escape(c) + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, cell := range row {
			b.WriteString(" " + escape(cell) + " |")
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Write renders in the named format: "ascii", "csv", "tsv", or "markdown".
func (t *Table) Write(w io.Writer, format string) error {
	switch format {
	case "", "ascii":
		return t.WriteASCII(w)
	case "csv":
		return t.WriteCSV(w)
	case "tsv":
		return t.WriteTSV(w)
	case "markdown", "md":
		return t.WriteMarkdown(w)
	default:
		return fmt.Errorf("table: unknown format %q", format)
	}
}
