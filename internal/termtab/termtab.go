// Package termtab renders small tables for command-line tools. When
// the destination is an interactive terminal the columns are aligned
// and cells may carry ANSI colors; otherwise (pipes, files, CI logs)
// rows degrade to plain tab-separated lines that cut/awk/sort handle
// without stripping escape codes. Stdlib only.
package termtab

import (
	"io"
	"os"
	"strings"
	"unicode/utf8"
)

// Style is an ANSI SGR prefix applied to one cell on TTY output.
type Style string

// Cell styles. None leaves the cell unstyled everywhere.
const (
	None   Style = ""
	Red    Style = "\x1b[31m"
	Yellow Style = "\x1b[33m"
	Green  Style = "\x1b[32m"
)

const reset = "\x1b[0m"

// Cell is one table cell: text plus an optional TTY style.
type Cell struct {
	Text  string
	Style Style
}

// C is shorthand for an unstyled cell.
func C(text string) Cell { return Cell{Text: text} }

// IsTTY reports whether f is an interactive terminal (character
// device). False for nil, pipes, and regular files.
func IsTTY(f *os.File) bool {
	if f == nil {
		return false
	}
	fi, err := f.Stat()
	if err != nil {
		return false
	}
	return (fi.Mode() & os.ModeCharDevice) != 0
}

// Table accumulates rows and renders them either aligned (tty) or
// tab-separated (not). The zero value is a non-TTY table.
type Table struct {
	tty    bool
	indent string
	rows   [][]Cell
}

// New returns a table; tty selects aligned, styled output.
func New(tty bool) *Table { return &Table{tty: tty} }

// Indent sets a prefix emitted before every row.
func (t *Table) Indent(prefix string) *Table {
	t.indent = prefix
	return t
}

// Row appends one row.
func (t *Table) Row(cells ...Cell) {
	t.rows = append(t.rows, cells)
}

// Render writes the table. Aligned mode pads every column but the last
// to its widest cell (two-space gutter); plain mode joins cells with
// single tabs.
func (t *Table) Render(w io.Writer) {
	if len(t.rows) == 0 {
		return
	}
	var b strings.Builder
	if !t.tty {
		for _, row := range t.rows {
			b.WriteString(t.indent)
			for i, c := range row {
				if i > 0 {
					b.WriteByte('\t')
				}
				b.WriteString(c.Text)
			}
			b.WriteByte('\n')
		}
		io.WriteString(w, b.String())
		return
	}
	var widths []int
	for _, row := range t.rows {
		for i, c := range row {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if n := utf8.RuneCountInString(c.Text); n > widths[i] {
				widths[i] = n
			}
		}
	}
	for _, row := range t.rows {
		b.WriteString(t.indent)
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(row)-1 {
				pad = widths[i] - utf8.RuneCountInString(c.Text)
			}
			if c.Style != None {
				b.WriteString(string(c.Style))
				b.WriteString(c.Text)
				b.WriteString(reset)
			} else {
				b.WriteString(c.Text)
			}
			for ; pad > 0; pad-- {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	io.WriteString(w, b.String())
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}
